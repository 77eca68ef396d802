#include "webserver.hh"

#include "util/logging.hh"

namespace osp
{

namespace
{

/** The paper's eight documents: 104KB to 1.4MB. */
const std::uint64_t baseSizesKb[8] = {104, 200, 300, 420,
                                      600, 800, 1000, 1400};

CodeProfile
apacheProfile(const Region &code)
{
    CodeProfile p;
    p.loadFrac = 0.24;
    p.storeFrac = 0.09;
    p.branchFrac = 0.17;
    p.depChance = 0.42;
    p.depDistMean = 4.0;
    p.branchRandomFrac = 0.07;
    p.code = code;
    p.blockRunBytes = 320;
    return p;
}

} // namespace

AbWorkload::AbWorkload(SyntheticKernel &kern, const AbParams &p,
                       std::uint64_t seed)
    : BaseWorkload(p.sequential ? "ab-seq" : "ab-rand", kern, seed,
                   0xAB00ULL + (p.sequential ? 1 : 0)),
      params(p),
      totalRequests(p.warmupRequests + p.measureRequests)
{
    appProf = apacheProfile(user.code);
    for (std::uint64_t kb : baseSizesKb) {
        auto bytes = static_cast<std::uint64_t>(
            static_cast<double>(kb * 1024) * params.fileScale);
        if (bytes < 4096)
            bytes = 4096;
        fileSizes.push_back(bytes);
        fileIds.push_back(kernel->vfs().addFile(bytes, 4));
    }
    logFileId = kernel->vfs().addFile(4096, 4);
}

bool
AbWorkload::inWarmup() const
{
    return requestsDone_ < params.warmupRequests;
}

std::uint32_t
AbWorkload::fileFor(std::uint32_t r)
{
    if (!params.sequential)
        return rng.range(static_cast<std::uint32_t>(fileIds.size()));
    // Equal runs per document, ascending size (sizes are sorted).
    std::uint64_t idx =
        (static_cast<std::uint64_t>(r) * fileIds.size()) /
        totalRequests;
    if (idx >= fileIds.size())
        idx = fileIds.size() - 1;
    return static_cast<std::uint32_t>(idx);
}

BaseWorkload::Advance
AbWorkload::advance(ServiceRequest &req)
{
    switch (phase) {
      case Phase::OpenLog:
        // One-time server start-up: open the access log.
        compute(appProf, 600, user.heap);
        req = request(ServiceType::SysOpen, logFileId);
        phase = Phase::Accept;
        logFd = ~0ULL;
        return Advance::Syscall;

      case Phase::Accept:
        if (logFd == ~0ULL)
            logFd = lastResult.value;
        if (requestsDone_ >= totalRequests)
            return Advance::Done;
        compute(appProf, 250, user.stack);
        req = request(ServiceType::SysSocketcall, 0);
        phase = Phase::AcceptMutex;
        return Advance::Syscall;

      case Phase::AcceptMutex:
        connFd = lastResult.value;
        req = request(ServiceType::SysIpc, 1);
        phase = Phase::Poll;
        return Advance::Syscall;

      case Phase::Poll:
        compute(appProf, 120, user.stack);
        req = request(ServiceType::SysPoll, connFd, 2);
        phase = Phase::Recv;
        return Advance::Syscall;

      case Phase::Recv:
        req = request(ServiceType::SysSocketcall, 2, connFd, 600);
        phase = Phase::ParseRequest;
        return Advance::Syscall;

      case Phase::ParseRequest:
        // HTTP parsing and vhost/URI mapping.
        compute(appProf, 1500, user.heap, PatternKind::Hot);
        curFile = fileFor(requestsDone_);
        phase = Phase::Stat;
        return Advance::Continue;

      case Phase::Stat:
        req = request(ServiceType::SysStat64, fileIds[curFile],
                      user.stack.base);
        phase = Phase::Open;
        return Advance::Syscall;

      case Phase::Open:
        compute(appProf, 300, user.heap);
        req = request(ServiceType::SysOpen, fileIds[curFile]);
        phase = Phase::Fcntl;
        return Advance::Syscall;

      case Phase::Fcntl:
        fileFd = lastResult.value;
        req = request(ServiceType::SysFcntl64, connFd, 1);
        phase = Phase::TimestampStart;
        return Advance::Syscall;

      case Phase::TimestampStart:
        req = request(ServiceType::SysGettimeofday);
        phase = Phase::Read;
        bytesLeft = fileSizes[curFile];
        firstChunk = true;
        return Advance::Syscall;

      case Phase::Read:
        if (bytesLeft == 0) {
            phase = Phase::LogWrite;
            return Advance::Continue;
        }
        {
            std::uint64_t chunk = bytesLeft < params.chunkBytes
                                      ? bytesLeft
                                      : params.chunkBytes;
            req = request(ServiceType::SysRead, fileFd, chunk,
                          user.ioBuffer.base);
            phase = Phase::Writev;
            return Advance::Syscall;
        }

      case Phase::Writev:
        lastReadBytes = lastResult.value;
        if (lastReadBytes == 0) {
            phase = Phase::LogWrite;
            return Advance::Continue;
        }
        bytesLeft -= lastReadBytes;
        // Chunk bookkeeping in user space.
        compute(appProf, 250, user.heap);
        {
            std::uint64_t hdr = firstChunk ? 300 : 0;
            firstChunk = false;
            req = request(ServiceType::SysWritev, connFd,
                          lastReadBytes + hdr, hdr ? 3 : 2);
        }
        phase = Phase::Read;
        return Advance::Syscall;

      case Phase::LogWrite:
        // Format the access-log line.
        compute(appProf, 700, user.heap, PatternKind::Hot);
        req = request(ServiceType::SysWrite, logFd, 90,
                      user.heap.base);
        phase = Phase::TimestampEnd;
        return Advance::Syscall;

      case Phase::TimestampEnd:
        req = request(ServiceType::SysGettimeofday);
        phase = Phase::CloseFile;
        return Advance::Syscall;

      case Phase::CloseFile:
        req = request(ServiceType::SysClose, fileFd);
        phase = Phase::CloseConn;
        return Advance::Syscall;

      case Phase::CloseConn:
        req = request(ServiceType::SysClose, connFd);
        ++requestsDone_;
        phase = Phase::Accept;
        return Advance::Syscall;
    }
    osp_panic("AbWorkload: bad phase");
}

} // namespace osp
