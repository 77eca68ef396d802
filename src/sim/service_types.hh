/**
 * @file
 * OS service taxonomy and the syscall/interrupt ABI of the simulated
 * machine.
 *
 * An *OS service* is a specific type of system call or interrupt
 * handled in privileged mode (paper Sec. 3); an *OS service
 * interval* runs from the mode switch into the kernel until the
 * return to user mode. The type of the initiating event names the
 * whole interval even if the handler internally performs more work
 * (the paper's simplification).
 *
 * The service list mirrors the ones the paper's Figs. 3-5 report for
 * the Linux 2.6.13 guest: the hot system calls of the web server /
 * Unix tool / network workloads plus the timer, disk and NIC
 * interrupt vectors and the page-fault exception.
 */

#ifndef OSP_SIM_SERVICE_TYPES_HH
#define OSP_SIM_SERVICE_TYPES_HH

#include <cstdint>

namespace osp
{

/** Every OS service type the synthetic kernel implements. */
enum class ServiceType : std::uint8_t
{
    SysRead = 0,
    SysWrite,
    SysOpen,
    SysClose,
    SysPoll,
    SysSocketcall,
    SysStat64,
    SysWritev,
    SysFcntl64,
    SysIpc,
    SysGettimeofday,
    SysBrk,
    IntPageFault,  //!< Int_14: page-fault exception (synchronous)
    IntDisk,       //!< Int_49: disk I/O completion
    IntNic,        //!< Int_121: network interface
    IntTimer,      //!< Int_239: local APIC timer tick
    NumTypes,
};

/** Number of distinct service types (for type-indexed tables). */
inline constexpr int numServiceTypes =
    static_cast<int>(ServiceType::NumTypes);

/** Linux-style display name, e.g. "sys_read" or "Int_239". */
const char *serviceName(ServiceType type);

/** Arguments passed from user mode on a syscall; the meaning of each
 *  register is service-specific (like x86 EBX/ECX/EDX). */
struct SyscallArgs
{
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
    std::uint64_t arg2 = 0;
};

/** Value returned to user mode when the service interval ends. */
struct ServiceResult
{
    std::uint64_t value = 0;
};

/** A pending mode-switch request: which service, with which args. */
struct ServiceRequest
{
    ServiceType type = ServiceType::SysRead;
    SyscallArgs args;
};

} // namespace osp

#endif // OSP_SIM_SERVICE_TYPES_HH
