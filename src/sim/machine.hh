/**
 * @file
 * The full-system simulator: binds a guest application, a guest
 * kernel, the CPU timing models and the memory hierarchy, and runs
 * them with per-interval switchable detail — the capability the
 * paper had to assume Simics would eventually grow (Sec. 6.4).
 *
 * Execution alternates between user mode (instructions pulled from
 * the UserProgram) and kernel mode (OS-service intervals planned by
 * the KernelIface). Every mode switch drains the active timing
 * model, so each interval has a well-defined cycle cost, and raises
 * events that a ServiceController (the paper's learning/prediction
 * engine) can use to decide whether the next OS-service invocation
 * is simulated in detail or fast-forwarded in emulation.
 */

#ifndef OSP_SIM_MACHINE_HH
#define OSP_SIM_MACHINE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "branch_predictor.hh"
#include "codegen.hh"
#include "cpu.hh"
#include "detail_level.hh"
#include "inorder_cpu.hh"
#include "interfaces.hh"
#include "interval_profile.hh"
#include "mem/hierarchy.hh"
#include "obs/telemetry.hh"
#include "ooo_cpu.hh"
#include "service_types.hh"
#include "util/types.hh"

namespace osp
{

/**
 * How a predicted (emulated) OS-service interval's cache side
 * effects are modelled.
 */
enum class PollutionPolicy
{
    /** No pollution modeling at all (ablation baseline). */
    None,
    /** The paper's Sec. 4.5 model: invalidate predicted-miss-count
     *  application-owned victims in uniformly random sets. */
    PaperInvalidateApp,
    /** As above but victims may be any line. */
    InvalidateAny,
    /** Replace victims with synthetic never-hit lines: full
     *  capacity displacement, no footprint reuse. */
    SyntheticInstall,
    /**
     * Footprint-faithful: install predicted-miss-count lines with
     * *real* addresses drawn from the skipped service's plan
     * (CodeGenerator::drawFootprint: distinct lines, met in a
     * golden-ratio order of its accesses and fetch positions, with
     * each work item's own address pattern), so the service
     * both displaces other content and keeps its own hot lines
     * resident. Nothing is lowered: the cost is the accesses the
     * draw visits (at most the plan's) plus the installs, per
     * skipped interval.
     */
    Footprint,
};

/** Display name for reports. */
const char *pollutionPolicyName(PollutionPolicy policy);

/** Whole-machine configuration. */
struct MachineConfig
{
    HierarchyParams hier;
    CpuParams cpu;
    /** Timing model used for detailed portions. */
    DetailLevel level = DetailLevel::OooCache;
    /** Application-only simulation: OS services complete
     *  functionally in zero simulated time (the SimpleScalar-style
     *  baseline of Figs. 1-2). */
    bool appOnly = false;
    /** Master seed; everything stochastic derives from it. */
    std::uint64_t seed = 1;
    /** Keep a per-interval log of OS services (Figs. 3-5). */
    bool recordIntervals = false;
    /**
     * Cache-pollution model for predicted OS intervals (see
     * DESIGN.md and the abl4 bench).
     */
    PollutionPolicy pollutionPolicy = PollutionPolicy::Footprint;
};

/** One logged OS-service interval (recordIntervals mode). */
struct IntervalRecord
{
    ServiceType type = ServiceType::SysRead;
    std::uint64_t invocation = 0;  //!< per-type index, post-warmup
    InstCount insts = 0;
    bool detailed = false;
    Cycles cycles = 0;            //!< simulated or predicted
    HierarchyCounts mem;          //!< simulated or predicted

    double
    ipc() const
    {
        return cycles ? static_cast<double>(insts) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/** Per-service aggregate of a run. */
struct ServiceTotals
{
    std::uint64_t invocations = 0;
    std::uint64_t simulated = 0;   //!< fully simulated (learning)
    std::uint64_t predicted = 0;   //!< emulated + predicted
    InstCount insts = 0;
    Cycles cycles = 0;             //!< simulated + predicted cycles
};

/** Whole-run totals. */
struct RunTotals
{
    InstCount appInsts = 0;
    InstCount osInsts = 0;
    /** Of osInsts, those executed in emulation (prediction
     *  periods) — the X of the paper's Eq. 10. */
    InstCount osPredInsts = 0;
    Cycles appCycles = 0;
    Cycles osSimCycles = 0;    //!< from detailed OS intervals
    Cycles osPredCycles = 0;   //!< from predicted OS intervals
    std::uint64_t osInvocations = 0;
    std::uint64_t osSimulated = 0;
    std::uint64_t osPredicted = 0;
    /** Measured memory-system counters (detailed portions). */
    HierarchyCounts measuredMem;
    /** Predicted memory-system counters (emulated OS intervals). */
    HierarchyCounts predictedMem;
    std::array<ServiceTotals, numServiceTypes> perService{};

    /** Total simulated time: app + simulated OS + predicted OS. */
    Cycles
    totalCycles() const
    {
        return appCycles + osSimCycles + osPredCycles;
    }

    /** Total retired instructions (app + OS). */
    InstCount totalInsts() const { return appInsts + osInsts; }

    /** Combined IPC. */
    double
    ipc() const
    {
        Cycles c = totalCycles();
        return c ? static_cast<double>(totalInsts()) /
                       static_cast<double>(c)
                 : 0.0;
    }

    /** Fraction of instructions executed in kernel mode. */
    double
    osInstFraction() const
    {
        InstCount t = totalInsts();
        return t ? static_cast<double>(osInsts) /
                       static_cast<double>(t)
                 : 0.0;
    }

    /** Prediction coverage: fraction of OS invocations skipped. */
    double
    coverage() const
    {
        return osInvocations
                   ? static_cast<double>(osPredicted) /
                         static_cast<double>(osInvocations)
                   : 0.0;
    }

    /** Combined (measured + predicted) memory counters. */
    HierarchyCounts
    combinedMem() const
    {
        HierarchyCounts c = measuredMem;
        c += predictedMem;
        return c;
    }
};

/**
 * The simulator. Construct with a config, a workload and a kernel;
 * optionally attach a ServiceController; call run().
 */
class Machine
{
  public:
    Machine(const MachineConfig &config,
            std::unique_ptr<UserProgram> workload,
            std::unique_ptr<KernelIface> kernel);

    /** Attach (or detach, with nullptr) the acceleration
     *  controller. Not owned; must outlive the run. */
    void setController(ServiceController *controller);

    /**
     * Attach (or detach, with nullptr) a telemetry sink. Not owned;
     * must outlive the run. The machine registers its own
     * instruments under "machine", publishes per-level cache
     * statistics under "mem.<level>" when run() returns, drives
     * the tracer's clock with the retired-instruction count (the
     * only clock that is identical across thread counts), and
     * hands the accuracy ledger the end-of-run cycle totals it
     * needs to turn per-cluster error into an error budget. Purely
     * observational: attaching changes no simulated outcome.
     */
    void setTelemetry(obs::Telemetry *telemetry);

    /**
     * Attach (or detach, with nullptr) a Phase-1 interval profiler.
     * Not owned; must outlive the run. While attached, the run loop
     * cuts retirement chunks at app-instruction interval edges and
     * feeds the profiler per-chunk tallies plus one note per
     * OS-service invocation; profiling restarts when warm-up ends
     * (mirroring the statistics reset). Purely observational.
     */
    void setIntervalProfiler(IntervalProfiler *profiler);

    /**
     * Attach (or detach, with nullptr) a Phase-2 sample plan. Not
     * owned; must outlive the run. Intervals the plan samples run
     * on the configured timing engine and are logged in
     * sampleLog(); the rest fast-forward in emulation with
     * functional cache/branch-predictor warming. OS services are
     * unaffected (kernel time is never sampled: it is either
     * simulated in detail or predicted by the controller).
     */
    void setSamplePlan(const SamplePlan *plan);

    /** Per-sampled-interval measurements (Phase-2 runs only). */
    const std::vector<IntervalSample> &sampleLog() const
    {
        return sampleLog_;
    }

    /**
     * Run until the workload completes or @p max_insts total
     * instructions retire (0 = no limit). Returns the totals, which
     * stay accessible via totals() afterwards.
     */
    const RunTotals &run(InstCount max_insts = 0);

    /**
     * Run only the workload's warm-up: return once the warm-up to
     * measured transition has reset the statistics (at once for a
     * program without warm-up). A later run() continues from there
     * exactly as if it had run the warm-up itself; its
     * @p max_insts then bounds only the measured part. Dies if
     * called twice or after run().
     */
    void runWarmup();

    /**
     * A new machine on @p config that continues from this one's
     * functional state: copies of the program, the kernel and the
     * OS-service stream (the service generator, the invocation
     * counters, the last service result). Caches, branch predictor
     * and timing engines start cold, which is what they are at the
     * end of warm-up (it touches none of them); no controller,
     * telemetry, profiler or sample plan is attached. Forked after
     * runWarmup(), it runs the measured part as a fresh machine on
     * @p config would. Dies after run(), or if the program or the
     * kernel cannot be copied (see UserProgram::clone).
     */
    std::unique_ptr<Machine> fork(const MachineConfig &config) const;

    const RunTotals &totals() const { return totals_; }

    /** Per-interval log (only populated with recordIntervals). */
    const std::vector<IntervalRecord> &intervals() const
    {
        return intervals_;
    }

    MemoryHierarchy &hierarchy() { return hier; }
    const MachineConfig &config() const { return config_; }
    const GshareBp &branchPredictor() const { return bp; }
    UserProgram &workload() { return *workload_; }
    KernelIface &kernel() { return *kernel_; }

  private:
    /**
     * Tag type standing in for "no timing model": the run loop is
     * instantiated once per concrete engine (InOrderCpu, OooCpu,
     * EmulateEngine), so the per-instruction path calls the timing
     * model directly — inlineable, no virtual dispatch — and the
     * Emulate instantiation compiles the timing calls out entirely.
     */
    struct EmulateEngine
    {
    };

    /**
     * Upper bound on ops per fetched block (stack buffer size). The
     * block path amortizes the per-op virtual step() and interrupt
     * polls over whole compute bursts, and a block never crosses a
     * syscall, warm-up boundary or interrupt-delivery point, so the
     * outcome is the one step() alone would give.
     */
    static constexpr std::size_t kMaxBlockOps = 256;

    /** Pick the engine for the configured level and run. */
    const RunTotals &dispatch(InstCount max_insts, bool warmup_only);

    /**
     * The run loop, devirtualized over the engine type. With
     * @p warmup_only it returns at the end of warm-up (or of the
     * program), before any end-of-run bookkeeping.
     */
    template <class EngineT>
    const RunTotals &runLoop(EngineT *eng, InstCount max_insts,
                             bool warmup_only);

    /** Run one complete OS-service interval. */
    template <class EngineT>
    void runServiceT(EngineT *eng, const ServiceRequest &req);

    /** Deliver all interrupts due at the current instruction count. */
    template <class EngineT>
    void deliverInterruptsT(EngineT *eng);

    /** Drain the engine and credit cycles to @p owner. */
    template <class EngineT>
    void drainIntoT(EngineT *eng, Owner owner);

    /**
     * Functionally warm caches and the branch predictor with one
     * fast-forwarded app op: the same state-mutating accesses the
     * timing engines make, with the latency discarded.
     * @p fetch_line memoizes the last touched I-line.
     */
    void warmOp(const MicroOp &op, Addr &fetch_line);

    /** Record a machine-level trace event (no-op unattached). */
    void
    trace(obs::TraceEventKind kind, std::uint8_t service,
          std::uint64_t a, std::uint64_t b)
    {
        if (telemetry_)
            telemetry_->tracer.record(kind, service, a, b);
    }

    /** Copy final per-level cache statistics into the registry. */
    void publishCacheStats();

    MachineConfig config_;
    std::unique_ptr<UserProgram> workload_;
    std::unique_ptr<KernelIface> kernel_;
    ServiceController *controller = nullptr;

    MemoryHierarchy hier;
    GshareBp bp;
    InOrderCpu inorder;
    InOrderCpu inorderNoCache;
    OooCpu ooo;
    OooCpu oooNoCache;

    RunTotals totals_;
    std::vector<IntervalRecord> intervals_;
    IntervalProfiler *profiler_ = nullptr;
    const SamplePlan *samplePlan_ = nullptr;
    std::vector<IntervalSample> sampleLog_;
    std::array<std::uint64_t, numServiceTypes> invocationIndex{};
    std::uint64_t serviceSeq = 0;  //!< global invocation counter
    ServiceResult lastServiceResult;
    bool warmupDone = false;
    bool programDone = false;  //!< step() has returned Done

    /** Where the machine is in its single run. */
    enum class Stage : std::uint8_t { Fresh, WarmedUp, Ran };
    Stage stage = Stage::Fresh;

    /** Lowers every OS-service plan; restarted per invocation. */
    CodeGenerator serviceGen;

    /** Footprint lines drawn per predicted service: its predicted
     *  L1 miss counts, capped here. The samples are reused across
     *  intervals. */
    static constexpr std::uint64_t kFootprintDataCap = 2048;
    static constexpr std::uint64_t kFootprintCodeCap = 512;
    std::vector<Addr> dataSample;
    std::vector<Addr> codeSample;

    // Telemetry (null/cached-pointer scheme: see obs/telemetry.hh).
    obs::Telemetry *telemetry_ = nullptr;
    obs::Counter *cServicesDetailed_ = nullptr;
    obs::Counter *cServicesPredicted_ = nullptr;
    obs::Counter *cPollutionRequested_ = nullptr;
    obs::Counter *cPollutionAffected_ = nullptr;
    obs::Counter *cFootprintFills_ = nullptr;
    obs::Counter *cIntervalsSampled_ = nullptr;
    obs::Counter *cSampleDetailedInsts_ = nullptr;
    obs::Counter *cSampleFfInsts_ = nullptr;
    obs::Histogram *hServiceInsts_ = nullptr;
};

} // namespace osp

#endif // OSP_SIM_MACHINE_HH
