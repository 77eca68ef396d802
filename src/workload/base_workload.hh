/**
 * @file
 * Shared machinery for guest applications.
 *
 * A workload is a small state machine: it queues user-mode compute
 * into its own CodeGenerator, and between compute blocks it raises
 * system calls. BaseWorkload implements the UserProgram pull
 * interface on top of that: step() serves generated instructions
 * until the generator runs dry, then asks the subclass to advance
 * its state machine.
 */

#ifndef OSP_WORKLOAD_BASE_WORKLOAD_HH
#define OSP_WORKLOAD_BASE_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>

#include "os/kernel.hh"
#include "sim/codegen.hh"
#include "sim/interfaces.hh"

namespace osp
{

/** Standard user-space address map shared by all workloads. */
struct UserLayout
{
    Region code{0x00400000ULL, 64 * 1024};
    /** Modest by default: the OS-intensive workloads' user sides are
     *  cache-friendly (SPEC-like workloads size their own data
     *  regions explicitly). */
    Region heap{0x10000000ULL, 192 * 1024};
    Region ioBuffer{0x20000000ULL, 256 * 1024};
    Region stack{0x30000000ULL, 64 * 1024};
};

/** See file comment. */
class BaseWorkload : public UserProgram
{
  public:
    BaseWorkload(std::string name, SyntheticKernel &kernel,
                 std::uint64_t seed, std::uint64_t stream);

    Step step(MicroOp &op, ServiceRequest &req) final;

    /**
     * Drain queued user compute in blocks straight from the
     * generator. Never advances the state machine (see the
     * UserProgram contract): returning 0 routes the Machine back to
     * step(), which is where syscalls and completion happen.
     */
    std::size_t
    opBlock(MicroOp *buf, std::size_t cap) final
    {
        return gen.nextBlock(buf, cap);
    }

    /** Lowering::Lean: the same draws and generator state as
     *  opBlock(), minus the dependence and latency work. */
    std::size_t
    opBlockLean(MicroOp *buf, std::size_t cap) final
    {
        return gen.nextBlock<Lowering::Lean>(buf, cap);
    }

    void
    onServiceReturn(ServiceType type, ServiceResult result) override
    {
        lastResult = result;
        lastResultType = type;
    }

    const char *name() const override { return name_.c_str(); }

  protected:
    /** What advance() decided. */
    enum class Advance
    {
        Continue,  //!< user compute was queued; keep stepping
        Syscall,   //!< @p req was filled
        Done,      //!< program finished
    };

    /**
     * Move the state machine forward: queue user compute into gen,
     * fill @p req with a syscall, or finish. Called whenever the
     * generator runs dry. Returning Continue without queueing work
     * is a panic (it would livelock the machine).
     */
    virtual Advance advance(ServiceRequest &req) = 0;

    /** Queue @p ops of user compute with the given profile/data. */
    void
    compute(const CodeProfile &profile, std::uint64_t ops,
            Region data, PatternKind pattern = PatternKind::Sequential)
    {
        gen.pushCompute(profile, ops, data, pattern);
    }

    /** Build a ServiceRequest in place. */
    static ServiceRequest
    request(ServiceType type, std::uint64_t a0 = 0,
            std::uint64_t a1 = 0, std::uint64_t a2 = 0)
    {
        ServiceRequest req;
        req.type = type;
        req.args = SyscallArgs{a0, a1, a2};
        return req;
    }

    /**
     * A copy of @p self, the most-derived object, running on
     * @p kernel: each program's clone() is this one line. Dies
     * unless @p kernel is a SyntheticKernel.
     */
    template <class Derived>
    static std::unique_ptr<UserProgram>
    cloneOnto(const Derived &self, KernelIface *kernel)
    {
        auto copy = std::make_unique<Derived>(self);
        static_cast<BaseWorkload &>(*copy).rebind(kernel);
        return copy;
    }

    /** The kernel this program runs on; fork() rebinds a copy. */
    SyntheticKernel *kernel;
    UserLayout user;
    CodeGenerator gen;
    Pcg32 rng;
    ServiceResult lastResult;
    ServiceType lastResultType = ServiceType::SysGettimeofday;

  private:
    void rebind(KernelIface *kernel);

    std::string name_;
};

} // namespace osp

#endif // OSP_WORKLOAD_BASE_WORKLOAD_HH
