/**
 * @file
 * The iperf network-benchmarking workload of Sec. 5.2.
 *
 * The client side of an iperf TCP bandwidth test: a single socket,
 * back-to-back sys_write calls of a fixed block size, periodic
 * gettimeofday for bandwidth reporting. Nearly every instruction
 * retires in kernel mode (the paper reports up to 99% OS
 * instructions), and the transmit path's working set — sk_buff
 * pool, socket buffers, NIC driver state, kernel code — is what
 * makes iperf the most L2-size-sensitive workload (2.03x speedup
 * from 512KB to 1MB in paper Fig. 2).
 */

#ifndef OSP_WORKLOAD_NETBENCH_HH
#define OSP_WORKLOAD_NETBENCH_HH

#include <cstdint>

#include "base_workload.hh"

namespace osp
{

/** iperf parameters. */
struct IperfParams
{
    /** Socket writes skipped before measurement (paper: 4096). */
    std::uint32_t warmupWrites = 200;
    /** Socket writes measured (paper: 4096). */
    std::uint32_t measureWrites = 1200;
    /** Bytes per write. */
    std::uint64_t writeBytes = 16 * 1024;
    /** Writes between gettimeofday timestamps. */
    std::uint32_t reportEvery = 128;
};

/** See file comment. */
class IperfWorkload : public BaseWorkload
{
  public:
    IperfWorkload(SyntheticKernel &kernel, const IperfParams &params,
                  std::uint64_t seed);

    bool inWarmup() const override;
    std::unique_ptr<UserProgram>
    clone(KernelIface *kernel) const override
    {
        return cloneOnto(*this, kernel);
    }

  protected:
    Advance advance(ServiceRequest &req) override;

  private:
    enum class Phase
    {
        Connect,
        Write,
        Timestamp,
    };

    IperfParams params;
    CodeProfile appProf;
    Phase phase = Phase::Connect;
    std::uint64_t sockFd = 0;
    std::uint32_t writesDone_ = 0;
};

} // namespace osp

#endif // OSP_WORKLOAD_NETBENCH_HH
