/**
 * @file
 * The three interfaces the Machine binds together: the guest
 * application (UserProgram), the guest kernel (KernelIface), and the
 * acceleration controller (ServiceController).
 *
 * Layering: sim/ owns only the abstractions; os/ implements
 * KernelIface, workload/ implements UserProgram, and core/ (the
 * paper's contribution) implements ServiceController.
 */

#ifndef OSP_SIM_INTERFACES_HH
#define OSP_SIM_INTERFACES_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "codegen.hh"
#include "detail_level.hh"
#include "mem/hierarchy.hh"
#include "microop.hh"
#include "service_types.hh"
#include "util/types.hh"

namespace osp
{

class KernelIface;

/**
 * A guest application. The Machine pulls user-mode instructions from
 * it; when the program needs the OS it raises a syscall instead of
 * an instruction.
 */
class UserProgram
{
  public:
    virtual ~UserProgram() = default;

    /** What the program produced on this step. */
    enum class Step
    {
        Op,       //!< @p op was filled with a user-mode instruction
        Syscall,  //!< @p req was filled with a service request
        Done,     //!< the program finished
    };

    /** Produce the next instruction or service request. */
    virtual Step step(MicroOp &op, ServiceRequest &req) = 0;

    /**
     * Fill up to @p cap already-queued user-mode instructions into
     * @p buf and return how many were produced. Must never advance
     * the program's syscall state machine: a return of 0 means the
     * next event has to come from step() (a syscall, completion, or
     * a program that does not batch). The ops returned must be the
     * byte-identical sequence step() would have produced, so the
     * Machine can retire whole blocks without any behavioural
     * difference. The default keeps legacy programs working with
     * zero changes.
     */
    virtual std::size_t
    opBlock(MicroOp *buf, std::size_t cap)
    {
        (void)buf;
        (void)cap;
        return 0;
    }

    /**
     * opBlock() for a block no timing engine will execute: only
     * each op's pc, cls, effAddr and taken need be right (depDist
     * and execLat may keep their MicroOp defaults), and the program
     * must end in the state opBlock() would have left — the same
     * ops, the same generator state — so later blocks are
     * unchanged. The Machine asks for it in Emulate-level runs,
     * during warm-up and in fast-forwarded sampling intervals. The
     * default lowers in full, which is always exact.
     */
    virtual std::size_t
    opBlockLean(MicroOp *buf, std::size_t cap)
    {
        return opBlock(buf, cap);
    }

    /** Deliver the result of a completed synchronous service. */
    virtual void onServiceReturn(ServiceType type,
                                 ServiceResult result) = 0;

    /**
     * True while the program is still in its skipped warm-up phase
     * (e.g. the first 300 HTTP requests of Sec. 5.2). The Machine
     * runs warm-up in pure emulation and resets statistics when it
     * ends.
     */
    virtual bool inWarmup() const { return false; }

    /** Workload display name ("ab-rand", "du", ...). */
    virtual const char *name() const = 0;

    /**
     * A copy of this program in its current state, running on
     * @p kernel: a copy of the kernel this program runs on, made at
     * the same moment (nullptr for a kernel-less machine). Machine
     * ::fork() uses it. The default returns nullptr: the program
     * cannot be copied, and fork() dies.
     */
    virtual std::unique_ptr<UserProgram>
    clone(KernelIface *kernel) const
    {
        (void)kernel;
        return nullptr;
    }
};

/**
 * A guest kernel. Functionally executes OS services (updating its
 * own state: page cache, sockets, ...) and, when asked, plans the
 * instruction stream the service executes. The plan is produced by
 * the same call that updates state, so detailed simulation and fast
 * emulation observe the identical instruction count — the
 * mode-invariant signature the paper's predictor requires.
 */
class KernelIface
{
  public:
    virtual ~KernelIface() = default;

    /**
     * Execute one service invocation functionally and, if @p gen is
     * non-null, queue its instruction plan into @p gen.
     *
     * @param type service type
     * @param args user-provided arguments
     * @param now  retired-instruction count at entry (for scheduling
     *             deferred interrupts)
     * @param gen  plan sink, or nullptr for functional-only
     *             execution (application-only simulation)
     */
    virtual ServiceResult invoke(ServiceType type,
                                 const SyscallArgs &args,
                                 InstCount now,
                                 CodeGenerator *gen) = 0;

    /**
     * The next interrupt due at or before the given
     * retired-instruction count, if any. Arrival is keyed to
     * instruction counts, not cycles, so detailed and emulated runs
     * observe identical interrupt schedules.
     */
    virtual std::optional<ServiceRequest>
    pendingInterrupt(InstCount now) = 0;

    /**
     * Lower bound on the retired-instruction count of the earliest
     * pending interrupt, or InstCount max if none is pending. The
     * Machine uses this to skip the per-instruction
     * pendingInterrupt() poll: it only polls once the count reaches
     * the bound, and refreshes the bound after every service
     * invocation (which may schedule earlier events). Returning 0 —
     * the conservative default — restores the poll-every-op
     * behaviour, so implementations that cannot cheaply answer stay
     * correct.
     */
    virtual InstCount nextInterruptAt() const { return 0; }

    /**
     * Page granularity of touchUserPage(): implementations must
     * fault at most once per kUserPageBytes-aligned page, and a page
     * once resident never becomes absent again. The Machine's run
     * loop relies on both properties to memoize known-present pages
     * and skip the per-access virtual call.
     */
    static constexpr Addr kUserPageBytes = 4096;

    /**
     * Record a user-mode touch of @p addr; returns true if it
     * page-faults (first touch of the page), in which case the
     * Machine runs the Int_14 service before the access.
     */
    virtual bool touchUserPage(Addr addr) = 0;

    /**
     * A copy of this kernel in its current state, for Machine
     * ::fork(). The default returns nullptr: the kernel cannot be
     * copied, and fork() dies.
     */
    virtual std::unique_ptr<KernelIface> clone() const
    {
        return nullptr;
    }
};

/**
 * Decides, per OS-service invocation, whether to simulate in detail
 * (learning) or skip to emulation and predict (prediction) — the
 * paper's core mechanism. Implemented by core/Accelerator; a null
 * controller means every service is fully simulated.
 */
class ServiceController
{
  public:
    /** Cycle/miss prediction for an emulated invocation. */
    struct Prediction
    {
        Cycles cycles = 0;
        HierarchyCounts mem;  //!< predicted per-interval cache deltas
    };

    /** One finished OS-service interval. */
    struct IntervalOutcome
    {
        ServiceType type = ServiceType::SysRead;
        /** Per-type invocation index (0-based). */
        std::uint64_t invocation = 0;
        InstCount insts = 0;      //!< the signature
        bool detailed = false;    //!< fully simulated?
        Cycles cycles = 0;        //!< valid when detailed
        HierarchyCounts mem;      //!< valid when detailed
    };

    virtual ~ServiceController() = default;

    /**
     * Unused: the Machine never calls it, and the signature is the
     * instruction count alone. It stays declared only because the
     * benchmark's traced controller wrapper (perfbench/src/layers.cc)
     * overrides it, and that tree changes only with the benchmark.
     */
    virtual bool wantsOpMix() const { return false; }

    /** Choose the detail level for the next invocation of @p type. */
    virtual DetailLevel chooseLevel(ServiceType type) = 0;

    /**
     * Consume a finished interval. For a detailed interval the
     * return value is ignored; for an emulated interval the
     * controller must return its performance prediction, which the
     * Machine adds to the run totals and uses to inject cache
     * pollution.
     */
    virtual Prediction onServiceEnd(const IntervalOutcome &outcome) = 0;
};

} // namespace osp

#endif // OSP_SIM_INTERFACES_HH
