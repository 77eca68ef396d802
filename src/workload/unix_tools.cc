#include "unix_tools.hh"

#include "util/logging.hh"

namespace osp
{

namespace
{
constexpr std::uint64_t dirIdFlag = 0x40000000ULL;

CodeProfile
toolProfile(const Region &code)
{
    CodeProfile p;
    p.loadFrac = 0.25;
    p.storeFrac = 0.10;
    p.branchFrac = 0.18;
    p.depChance = 0.45;
    p.depDistMean = 3.5;
    p.branchRandomFrac = 0.08;
    p.code = Region{code.base, 24 * 1024};
    p.blockRunBytes = 288;
    return p;
}

/** od's formatting loop: tight, predictable, store-heavy. */
CodeProfile
odProfile(const Region &code)
{
    CodeProfile p;
    p.loadFrac = 0.20;
    p.storeFrac = 0.22;
    p.branchFrac = 0.12;
    p.depChance = 0.40;
    p.depDistMean = 5.0;
    p.branchRandomFrac = 0.02;
    p.code = Region{code.base + 24 * 1024, 8 * 1024};
    p.blockRunBytes = 640;
    return p;
}

} // namespace

DuWorkload::DuWorkload(SyntheticKernel &kern,
                       const UnixToolParams &p, std::uint64_t seed)
    : BaseWorkload("du", kern, seed, 0xD0ULL), params(p)
{
    appProf = toolProfile(user.code);
    dirLimit = params.maxDirs ? params.maxDirs
                              : kernel->vfs().numDirs();
    if (dirLimit > kernel->vfs().numDirs())
        dirLimit = kernel->vfs().numDirs();
}

bool
DuWorkload::inWarmup() const
{
    return dirsDone < params.warmupDirs && dirsDone < dirLimit;
}

BaseWorkload::Advance
DuWorkload::advance(ServiceRequest &req)
{
    switch (phase) {
      case Phase::OpenDir:
        if (curDir >= dirLimit)
            return Advance::Done;
        compute(appProf, 400, user.heap, PatternKind::Hot);
        req = request(ServiceType::SysOpen, dirIdFlag | curDir);
        phase = Phase::Getdents;
        return Advance::Syscall;

      case Phase::Getdents:
        dirFd = lastResult.value;
        req = request(ServiceType::SysRead, dirFd, 16 * 1024,
                      user.ioBuffer.base);
        phase = Phase::CloseDir;
        return Advance::Syscall;

      case Phase::CloseDir:
        req = request(ServiceType::SysClose, dirFd);
        curFile = 0;
        phase = Phase::StatFile;
        return Advance::Syscall;

      case Phase::StatFile:
        {
            const auto &files = kernel->vfs().dirFiles(curDir);
            if (curFile >= files.size()) {
                phase = Phase::NextDir;
                return Advance::Continue;
            }
            // Accumulate the size in du's hash table.
            compute(appProf, 150, user.heap, PatternKind::Hot);
            req = request(ServiceType::SysStat64,
                          files[curFile], user.stack.base);
            ++curFile;
            return Advance::Syscall;
        }

      case Phase::NextDir:
        compute(appProf, 250, user.heap);
        ++curDir;
        ++dirsDone;
        if (dirsDone % 32 == 0) {
            // du grows its directory hash periodically.
            req = request(ServiceType::SysBrk, 16 * 1024);
            phase = Phase::OpenDir;
            return Advance::Syscall;
        }
        phase = Phase::OpenDir;
        return Advance::Continue;
    }
    osp_panic("DuWorkload: bad phase");
}

FindOdWorkload::FindOdWorkload(SyntheticKernel &kern,
                               const UnixToolParams &p,
                               std::uint64_t seed)
    : BaseWorkload("find-od", kern, seed, 0xF1ULL), params(p)
{
    appProf = toolProfile(user.code);
    odProf = odProfile(user.code);
    dirLimit = params.maxDirs ? params.maxDirs
                              : kernel->vfs().numDirs();
    if (dirLimit > kernel->vfs().numDirs())
        dirLimit = kernel->vfs().numDirs();
    outFileId = kernel->vfs().addFile(4096, 3);
}

bool
FindOdWorkload::inWarmup() const
{
    return dirsDone < params.warmupDirs && dirsDone < dirLimit;
}

BaseWorkload::Advance
FindOdWorkload::advance(ServiceRequest &req)
{
    switch (phase) {
      case Phase::OpenOut:
        compute(appProf, 500, user.heap);
        req = request(ServiceType::SysOpen, outFileId);
        phase = Phase::OpenDir;
        outFd = ~0ULL;
        return Advance::Syscall;

      case Phase::OpenDir:
        if (outFd == ~0ULL)
            outFd = lastResult.value;
        if (curDir >= dirLimit)
            return Advance::Done;
        compute(appProf, 350, user.heap, PatternKind::Hot);
        req = request(ServiceType::SysOpen, dirIdFlag | curDir);
        phase = Phase::Getdents;
        return Advance::Syscall;

      case Phase::Getdents:
        dirFd = lastResult.value;
        req = request(ServiceType::SysRead, dirFd, 16 * 1024,
                      user.ioBuffer.base);
        phase = Phase::CloseDir;
        return Advance::Syscall;

      case Phase::CloseDir:
        req = request(ServiceType::SysClose, dirFd);
        curFile = 0;
        phase = Phase::StatFile;
        return Advance::Syscall;

      case Phase::StatFile:
        {
            const auto &files = kernel->vfs().dirFiles(curDir);
            if (curFile >= files.size()) {
                phase = Phase::NextDir;
                return Advance::Continue;
            }
            compute(appProf, 200, user.heap);
            req = request(ServiceType::SysStat64,
                          files[curFile], user.stack.base);
            phase = Phase::OpenFile;
            return Advance::Syscall;
        }

      case Phase::OpenFile:
        {
            const auto &files = kernel->vfs().dirFiles(curDir);
            // fork+exec of od is folded into user compute.
            compute(appProf, 900, user.heap, PatternKind::Hot);
            req = request(ServiceType::SysOpen, files[curFile]);
            phase = Phase::ReadChunk;
            return Advance::Syscall;
        }

      case Phase::ReadChunk:
        if (lastResultType == ServiceType::SysOpen)
            fileFd = lastResult.value;
        req = request(ServiceType::SysRead, fileFd, 4096,
                      user.ioBuffer.base);
        phase = Phase::FormatAndWrite;
        return Advance::Syscall;

      case Phase::FormatAndWrite:
        lastReadBytes = lastResult.value;
        if (lastReadBytes == 0) {
            phase = Phase::CloseFile;
            return Advance::Continue;
        }
        // od formats ~3.2 output bytes per input byte; the
        // formatting loop costs ~1.2 ops per input byte and walks
        // only the 4KB chunk just read.
        compute(odProf, (lastReadBytes * 12) / 10,
                Region{user.ioBuffer.base, 4096},
                PatternKind::Sequential);
        req = request(ServiceType::SysWrite, outFd,
                      (lastReadBytes * 32) / 10,
                      user.ioBuffer.base);
        phase = Phase::ReadChunk;
        return Advance::Syscall;

      case Phase::CloseFile:
        req = request(ServiceType::SysClose, fileFd);
        ++curFile;
        phase = Phase::StatFile;
        return Advance::Syscall;

      case Phase::NextDir:
        compute(appProf, 300, user.heap);
        ++curDir;
        ++dirsDone;
        phase = Phase::OpenDir;
        return Advance::Continue;
    }
    osp_panic("FindOdWorkload: bad phase");
}

} // namespace osp
