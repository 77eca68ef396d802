/**
 * @file
 * Phase-1 interval profiling and Phase-2 sample plans for stratified
 * interval sampling (composed with OS-service prediction; see
 * EXPERIMENTS.md "Sampled simulation").
 *
 * Execution is sliced into fixed-length intervals of *application*
 * retired instructions (OS-service instructions never shift a
 * boundary, so interval edges are identical across detail levels —
 * the kernel plans come from the same seeded generator either way).
 * Phase 1 attaches an IntervalProfiler to an Emulate-engine run and
 * records a cheap per-interval feature vector; Phase 2 hands the
 * Machine a SamplePlan naming the intervals to simulate in detail,
 * fast-forwarding the rest with functional cache/branch-predictor
 * warming.
 */

#ifndef OSP_SIM_INTERVAL_PROFILE_HH
#define OSP_SIM_INTERVAL_PROFILE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "microop.hh"
#include "service_types.hh"
#include "util/types.hh"

namespace osp
{

/** Per-interval tallies gathered during the Phase-1 Emulate pass. */
struct IntervalFeatures
{
    std::uint64_t ops = 0;       //!< app instructions observed
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t fp = 0;
    std::uint64_t taken = 0;     //!< taken branches
    std::uint64_t svcInvocations = 0;
    InstCount svcInsts = 0;      //!< OS instructions in services
    std::array<std::uint32_t,
               static_cast<std::size_t>(numServiceTypes)>
        svcCounts{};             //!< service-signature mix
};

/**
 * Accumulates per-interval features from the run loop. The Machine
 * feeds it whole retired chunks (never spanning an interval edge)
 * plus one call per OS-service invocation, and finish()es it with
 * the final app-instruction count. reset() discards warm-up
 * tallies, mirroring the Machine's own warm-up statistics reset.
 */
class IntervalProfiler
{
  public:
    explicit IntervalProfiler(InstCount interval_len);

    InstCount intervalLen() const { return intervalLen_; }

    void reset();

    /** Tally @p n retired app ops belonging to @p interval. */
    void noteOps(std::uint64_t interval, const MicroOp *ops,
                 std::size_t n);

    /** Tally one OS-service invocation of @p insts kernel ops. */
    void noteService(std::uint64_t interval, ServiceType type,
                     InstCount insts);

    /** Close the profile at @p total_app_insts retired. */
    void finish(InstCount total_app_insts);

    /** Intervals of exactly intervalLen() app insts; anything past
     *  fullIntervals() * intervalLen() is the always-detailed tail. */
    std::uint64_t fullIntervals() const { return fullIntervals_; }

    /** Feature matrix over the full intervals (densities per app
     *  instruction + service-signature mix), for stratification. */
    std::vector<std::vector<double>> featureMatrix() const;

    /** Per-interval memory-access density, the Neyman-allocation
     *  cost proxy (memory stalls dominate CPI variation). */
    std::vector<double> costProxy() const;

  private:
    IntervalFeatures &at(std::uint64_t interval);

    InstCount intervalLen_;
    std::vector<IntervalFeatures> intervals_;
    std::uint64_t fullIntervals_ = 0;
};

/** Phase-2 contract: which intervals run on the timing engine. */
struct SamplePlan
{
    InstCount intervalLen = 0;
    /** Number of full-length intervals seen by Phase 1; intervals
     *  at or past this index form the tail, which is always
     *  simulated in detail (it is measured, not extrapolated). */
    std::uint64_t fullIntervals = 0;
    std::vector<std::uint8_t> sampledMask;  //!< size fullIntervals

    bool sampled(std::uint64_t interval) const
    {
        return interval >= fullIntervals ||
               sampledMask[static_cast<std::size_t>(interval)] != 0;
    }
};

/** One detailed-simulated interval's measurement from Phase 2. */
struct IntervalSample
{
    std::uint64_t index = 0;
    Cycles appCycles = 0;   //!< app cycles accrued in the interval
    InstCount appInsts = 0; //!< app insts retired in the interval
};

} // namespace osp

#endif // OSP_SIM_INTERVAL_PROFILE_HH
