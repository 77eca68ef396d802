/**
 * @file
 * The detailed out-of-order timing model.
 *
 * A one-pass, trace-driven OOO model in the style of interval
 * simulators: each instruction is dispatched subject to fetch
 * bandwidth and reorder-buffer occupancy, becomes ready when its
 * producer (depDist back in program order) and its execution
 * latency allow, and commits in order under a retire-width
 * constraint. Loads overlap through a finite MSHR pool; branch
 * mispredictions redirect fetch after a fixed penalty.
 *
 * Parameters default to the paper's Sec. 5.1 configuration: 4-wide
 * issue, 126-entry window, 3-wide retire, 10-cycle misprediction
 * penalty.
 */

#ifndef OSP_SIM_OOO_CPU_HH
#define OSP_SIM_OOO_CPU_HH

#include <vector>

#include "cpu.hh"

namespace osp
{

/** See file comment. */
class OooCpu
{
  public:
    /**
     * @param params    core parameters
     * @param hierarchy cache model, or nullptr for flat memory
     * @param bp        branch predictor, or nullptr for perfect
     *                  prediction
     */
    OooCpu(const CpuParams &params, MemoryHierarchy *hierarchy,
           GshareBp *bp);

    /** Account one instruction. */
    void execute(const MicroOp &op, Owner owner);

    /**
     * Close the current interval: complete everything in flight and
     * return the cycles the interval consumed. The next interval
     * starts from a serialized (empty) pipeline.
     */
    Cycles drain();

    /** Absolute cycle count since construction. */
    Cycles now() const { return lastCommit; }

  private:
    struct RobSlot
    {
        Cycles ready = 0;
        Cycles commit = 0;
    };

    /** Ready time of the producer depDist ops back, or @p dflt if it
     *  left the window / predates the interval. */
    Cycles producerReady(std::uint32_t dist, Cycles dflt) const;

    CpuParams params;
    MemoryHierarchy *hier;
    GshareBp *bp;

    std::vector<RobSlot> rob;     //!< ring buffer of windowSize
    std::uint32_t robIdx = 0;     //!< seq % windowSize, kept wrapping
    std::uint64_t seq = 0;        //!< ops dispatched since reset
    std::uint64_t intervalSeq = 0;  //!< seq at last drain

    Cycles fetchCycle = 0;
    std::uint32_t fetchedThisCycle = 0;
    Cycles lastCommit = 0;
    std::uint32_t committedThisCycle = 0;
    Addr lastFetchLine = ~static_cast<Addr>(0);

    std::vector<Cycles> mshrBusyUntil;

    Cycles intervalStart = 0;
};

} // namespace osp

#endif // OSP_SIM_OOO_CPU_HH
