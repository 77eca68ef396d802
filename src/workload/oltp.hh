/**
 * @file
 * An OLTP-style transaction-processing workload.
 *
 * The paper's introduction lists transaction processing among the
 * application classes that need full-system simulation, but its
 * evaluation never includes one; this workload is the repository's
 * generalization test (bench ext1): the predictor is tuned on the
 * paper's five OS-intensive benchmarks and must hold up on this
 * sixth, unseen syscall/interrupt profile.
 *
 * Each transaction models a simple storage-engine commit path:
 * lock acquisition (sys_ipc), a few random record-page reads
 * (sys_open + sys_read over a large set of small files, exercising
 * the dentry cache and the page cache's random-access path), user
 * compute (predicate evaluation + tuple formatting), a write-ahead
 * log append (sys_write), unlock (sys_ipc), and a periodic client
 * round-trip (sys_poll + sys_socketcall).
 */

#ifndef OSP_WORKLOAD_OLTP_HH
#define OSP_WORKLOAD_OLTP_HH

#include <cstdint>
#include <vector>

#include "base_workload.hh"

namespace osp
{

/** OLTP parameters. */
struct OltpParams
{
    /** Transactions skipped before measurement. */
    std::uint32_t warmupTransactions = 50;
    /** Transactions measured. */
    std::uint32_t measureTransactions = 400;
    /** Record pages read per transaction (uniform 1..max). */
    std::uint32_t maxReadsPerTxn = 4;
    /** Bytes appended to the write-ahead log per commit. */
    std::uint64_t logRecordBytes = 512;
    /** Transactions between client round-trips. */
    std::uint32_t clientEvery = 4;
};

/** See file comment. */
class OltpWorkload : public BaseWorkload
{
  public:
    OltpWorkload(SyntheticKernel &kernel, const OltpParams &params,
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
        Setup,        //!< open WAL + accept the client socket
        SetupSocket,
        BeginTxn,     //!< lock
        OpenRecord,
        ReadRecord,
        Compute,
        CloseRecord,
        MaybeMoreReads,
        WriteLog,
        Unlock,
        ClientPoll,   //!< every clientEvery transactions
        ClientReply,
    };

    OltpParams params;
    CodeProfile engineProf;
    std::uint32_t total;
    std::uint32_t walFileId = 0;
    Phase phase = Phase::Setup;
    std::uint32_t done_ = 0;
    std::uint64_t walFd = 0;
    std::uint64_t sockFd = 0;
    std::uint64_t recordFd = 0;
    std::uint32_t readsLeft = 0;
};

} // namespace osp

#endif // OSP_WORKLOAD_OLTP_HH
