/**
 * @file
 * The Apache + ab web-server workloads of Sec. 5.2.
 *
 * Each HTTP request runs the Apache worker's syscall sequence:
 * accept, accept-mutex semop (sys_ipc), poll, recv, stat64, open,
 * fcntl64, then a read/writev loop streaming the document to the
 * client in chunks, an access-log write, gettimeofday timestamps,
 * and closes. Eight documents with sizes spanning 104KB-1.4MB (scaled
 * by AbParams::fileScale) are served:
 *
 *  - ab-rand picks the document uniformly at random per request —
 *    the realistic, hard-to-predict client;
 *  - ab-seq serves equal runs of each document in ascending size
 *    order — the adversarial pattern whose late-appearing behaviour
 *    points stress the re-learning machinery (paper Fig. 4b).
 */

#ifndef OSP_WORKLOAD_WEBSERVER_HH
#define OSP_WORKLOAD_WEBSERVER_HH

#include <cstdint>
#include <vector>

#include "base_workload.hh"

namespace osp
{

/** Web-server workload parameters. */
struct AbParams
{
    /** Serve documents in ascending-size runs (ab-seq) instead of
     *  uniformly at random (ab-rand). */
    bool sequential = false;
    /** Requests skipped (served in emulation) before measurement. */
    std::uint32_t warmupRequests = 40;
    /** Requests measured. */
    std::uint32_t measureRequests = 150;
    /** File read chunk (Apache's buffered read size). */
    std::uint64_t chunkBytes = 16 * 1024;
    /** Scale factor on the paper's 104KB-1.4MB document sizes. 0.5
     *  keeps the served set (~2.4MB) larger than both the page
     *  cache and the L2, as in the paper's setup. */
    double fileScale = 0.5;
};

/** See file comment. */
class AbWorkload : public BaseWorkload
{
  public:
    AbWorkload(SyntheticKernel &kernel, const AbParams &params,
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
        OpenLog,
        Accept,
        AcceptMutex,
        Poll,
        Recv,
        ParseRequest,
        Stat,
        Open,
        Fcntl,
        TimestampStart,
        Read,
        Writev,
        LogWrite,
        TimestampEnd,
        CloseFile,
        CloseConn,
    };

    /** Pick the document served by request @p r. */
    std::uint32_t fileFor(std::uint32_t r);

    AbParams params;
    CodeProfile appProf;
    std::vector<std::uint32_t> fileIds;
    std::vector<std::uint64_t> fileSizes;
    std::uint32_t logFileId = 0;

    Phase phase = Phase::OpenLog;
    std::uint32_t requestsDone_ = 0;
    std::uint32_t totalRequests;
    std::uint64_t connFd = 0;
    std::uint64_t fileFd = 0;
    std::uint64_t logFd = 0;
    std::uint32_t curFile = 0;
    std::uint64_t bytesLeft = 0;
    std::uint64_t lastReadBytes = 0;
    bool firstChunk = true;
};

} // namespace osp

#endif // OSP_WORKLOAD_WEBSERVER_HH
