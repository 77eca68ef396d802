/**
 * @file
 * The synthetic kernel: a stateful model of the Linux 2.6-era
 * services the paper's workloads exercise.
 *
 * Each handler does two things in a single invoke() call: it
 * *functionally* executes the service against kernel state (page
 * cache, dentry cache, sockets, fd table), and it *plans* the
 * instruction stream the service executes, as work items pushed
 * into a CodeGenerator. Detailed simulation and fast emulation both
 * consume the same plan, so the invocation's instruction count — the
 * paper's behaviour signature — is identical in either mode.
 *
 * Behaviour points arise from state- and parameter-dependent paths,
 * exactly as in the real kernel: a sys_read served from the page
 * cache plans a short copy; one that misses plans block-layer
 * submission, page allocation, and schedules a disk-completion
 * interrupt; sys_open cost depends on how many path components miss
 * the dentry cache; Int_121 cost depends on the transmit backlog;
 * Int_239 runs a longer path every few ticks (scheduler tick).
 *
 * Syscall ABI (SyscallArgs):
 *   sys_read          arg0=fd, arg1=bytes, arg2=user buffer addr
 *   sys_write         arg0=fd, arg1=bytes, arg2=user buffer addr
 *   sys_open          arg0=file id                    -> fd
 *   sys_close         arg0=fd
 *   sys_stat64        arg0=file id                    -> size
 *   sys_poll          arg0=nfds, arg1=socket fd       -> ready count
 *   sys_socketcall    arg0=op (0 accept, 1 send, 2 recv),
 *                     arg1=fd (send/recv), arg2=bytes -> fd / bytes
 *   sys_writev        arg0=fd, arg1=total bytes, arg2=iov count
 *   sys_fcntl64       arg0=fd, arg1=cmd
 *   sys_ipc           arg0=op
 *   sys_gettimeofday  (none)
 *   sys_brk           arg0=bytes grown
 *   Int_14            arg0=faulting address
 */

#ifndef OSP_OS_KERNEL_HH
#define OSP_OS_KERNEL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "interrupts.hh"
#include "layout.hh"
#include "net_stack.hh"
#include "page_cache.hh"
#include "sim/interfaces.hh"
#include "util/random.hh"
#include "vfs.hh"

namespace osp
{

/** Kernel configuration. */
struct KernelParams
{
    /** Instructions between timer ticks (0 disables the timer).
     *  Default models ~1ms at 4GHz and OS-ish IPC. */
    InstCount timerPeriod = 1500000;
    /** Instructions from disk-I/O submission to Int_49. */
    InstCount diskLatency = 250000;
    /** Instructions from packet queueing to Int_121. */
    InstCount nicLatency = 25000;
    /** Page-cache frames (4KB each). */
    std::uint32_t pageCachePages = 1024;
    VfsParams vfs;
    std::uint32_t maxSockets = 16;
    /** Extent of fault-tracked user address space (covers the
     *  whole UserLayout: code, heap, I/O buffers and stacks). */
    Addr userSpaceSpan = 1024ULL * 1024 * 1024;
    /** +-fraction of plan-size jitter (invocation-to-invocation
     *  variation within one behaviour point). */
    double opJitter = 0.015;
    /** Probability a sys_ipc operation finds the semaphore
     *  contended (extra wakeup path). */
    double ipcContention = 0.25;
    std::uint64_t seed = 1;
};

/** See file comment. */
class SyntheticKernel : public KernelIface
{
  public:
    explicit SyntheticKernel(const KernelParams &params);

    // KernelIface
    ServiceResult invoke(ServiceType type, const SyscallArgs &args,
                         InstCount now, CodeGenerator *gen) override;
    std::optional<ServiceRequest>
    pendingInterrupt(InstCount now) override;
    InstCount nextInterruptAt() const override
    {
        return irq.nextDueAt();
    }
    bool touchUserPage(Addr addr) override;
    std::unique_ptr<KernelIface> clone() const override
    {
        return std::make_unique<SyntheticKernel>(*this);
    }

    /** Subsystem access (workload setup and tests). */
    Vfs &vfs() { return vfs_; }

  private:
    friend struct SyntheticKernelTestPeer;

    /** File-descriptor table entry. */
    struct Fd
    {
        enum class Kind : std::uint8_t { Free, File, Dir, Socket };
        Kind kind = Kind::Free;
        std::uint32_t id = 0;       //!< file / dir / socket id
        std::uint64_t offset = 0;   //!< file read/write position
        bool dirEof = false;
    };

    /** Jittered op count: base * (1 +- opJitter). */
    std::uint64_t jitter(std::uint64_t base);

    /** Plan helpers; all are no-ops when gen is null. */
    void compute(CodeGenerator *gen, const CodeProfile &profile,
                 std::uint64_t ops, Region data,
                 PatternKind pattern = PatternKind::Sequential);
    void copy(CodeGenerator *gen, ServiceType svc,
              std::uint64_t bytes, Region src, Region dst);
    void planEntry(CodeGenerator *gen);
    void planExit(CodeGenerator *gen);

    std::int32_t allocFd(Fd::Kind kind, std::uint32_t id);
    Fd &fdRef(std::uint64_t fd, const char *who);

    // Handlers.
    ServiceResult doRead(const SyscallArgs &args, InstCount now,
                         CodeGenerator *gen);
    ServiceResult doWrite(const SyscallArgs &args, InstCount now,
                          CodeGenerator *gen);
    ServiceResult doOpen(const SyscallArgs &args, CodeGenerator *gen);
    ServiceResult doClose(const SyscallArgs &args,
                          CodeGenerator *gen);
    ServiceResult doStat(const SyscallArgs &args, CodeGenerator *gen);
    ServiceResult doPoll(const SyscallArgs &args, CodeGenerator *gen);
    ServiceResult doSocketcall(const SyscallArgs &args, InstCount now,
                               CodeGenerator *gen);
    ServiceResult doWritev(const SyscallArgs &args, InstCount now,
                           CodeGenerator *gen);
    ServiceResult doFcntl(const SyscallArgs &args,
                          CodeGenerator *gen);
    ServiceResult doIpc(const SyscallArgs &args, CodeGenerator *gen);
    ServiceResult doGettimeofday(CodeGenerator *gen);
    ServiceResult doBrk(const SyscallArgs &args, CodeGenerator *gen);
    ServiceResult doPageFault(const SyscallArgs &args,
                              CodeGenerator *gen);
    ServiceResult doDiskIrq(CodeGenerator *gen);
    ServiceResult doNicIrq(InstCount now, CodeGenerator *gen);
    ServiceResult doTimerIrq(CodeGenerator *gen);

    /** Socket transmit path shared by write/send/writev. */
    std::uint64_t sendBytes(ServiceType svc, std::uint32_t sock,
                            std::uint64_t bytes, Addr user_buf,
                            InstCount now, CodeGenerator *gen);
    /** Socket receive path shared by read/recv. */
    std::uint64_t recvBytes(ServiceType svc, std::uint32_t sock,
                            std::uint64_t bytes, Addr user_buf,
                            CodeGenerator *gen);

    KernelParams params_;
    KernelLayout layout_;
    Vfs vfs_;
    NetStack net_;
    PageCache pageCache_;
    InterruptController irq;
    Pcg32 rng;

    std::vector<Fd> fdTable;
    std::vector<bool> userPagePresent;
    std::uint64_t dirtyPages = 0;
    std::uint64_t timerTicks = 0;
    bool diskIrqPending = false;
    bool nicIrqPending = false;

    // Cached per-service profiles.
    CodeProfile entryProf;
    CodeProfile svcProf[numServiceTypes];
};

} // namespace osp

#endif // OSP_OS_KERNEL_HH
