#include "oltp.hh"

#include "util/logging.hh"

namespace osp
{

namespace
{

/** Storage-engine code: B-tree walks are pointer-chasing and
 *  branchy; tuple work is moderately serial. */
CodeProfile
engineProfile(const Region &code)
{
    CodeProfile p;
    p.loadFrac = 0.28;
    p.storeFrac = 0.10;
    p.branchFrac = 0.17;
    p.depChance = 0.48;
    p.depDistMean = 3.0;
    p.branchRandomFrac = 0.09;
    p.code = Region{code.base, 40 * 1024};
    p.blockRunBytes = 256;
    return p;
}

} // namespace

OltpWorkload::OltpWorkload(SyntheticKernel &kern,
                           const OltpParams &p, std::uint64_t seed)
    : BaseWorkload("oltp", kern, seed, 0x01A9ULL),
      params(p),
      total(p.warmupTransactions + p.measureTransactions)
{
    engineProf = engineProfile(user.code);
    walFileId = kernel->vfs().addFile(4096, 3);
}

bool
OltpWorkload::inWarmup() const
{
    return done_ < params.warmupTransactions;
}

BaseWorkload::Advance
OltpWorkload::advance(ServiceRequest &req)
{
    switch (phase) {
      case Phase::Setup:
        // Buffer-pool and latch-table initialization, then open the
        // write-ahead log (modeled as an extra file).
        compute(engineProf, 2000, user.heap, PatternKind::Hot);
        req = request(ServiceType::SysOpen, walFileId);
        phase = Phase::SetupSocket;
        return Advance::Syscall;

      case Phase::SetupSocket:
        walFd = lastResult.value;
        req = request(ServiceType::SysSocketcall, 0);
        phase = Phase::BeginTxn;
        sockFd = ~0ULL;
        return Advance::Syscall;

      case Phase::BeginTxn:
        if (sockFd == ~0ULL)
            sockFd = lastResult.value;
        if (done_ >= total)
            return Advance::Done;
        // Acquire the commit lock.
        req = request(ServiceType::SysIpc, 0);
        readsLeft = 1 + rng.range(params.maxReadsPerTxn);
        phase = Phase::OpenRecord;
        return Advance::Syscall;

      case Phase::OpenRecord:
        {
            // Pick a random record page (file) from the original
            // tree (never the WAL, which was added last).
            std::uint32_t file = rng.range(walFileId);
            compute(engineProf, 250, user.heap, PatternKind::Hot);
            req = request(ServiceType::SysOpen, file);
            phase = Phase::ReadRecord;
            return Advance::Syscall;
        }

      case Phase::ReadRecord:
        recordFd = lastResult.value;
        req = request(ServiceType::SysRead, recordFd, 4096,
                      user.ioBuffer.base);
        phase = Phase::Compute;
        return Advance::Syscall;

      case Phase::Compute:
        // Predicate evaluation and tuple materialization.
        compute(engineProf, 600 + rng.range(400),
                Region{user.ioBuffer.base, 4096});
        phase = Phase::CloseRecord;
        return Advance::Continue;

      case Phase::CloseRecord:
        req = request(ServiceType::SysClose, recordFd);
        phase = Phase::MaybeMoreReads;
        return Advance::Syscall;

      case Phase::MaybeMoreReads:
        if (--readsLeft > 0) {
            phase = Phase::OpenRecord;
            return Advance::Continue;
        }
        phase = Phase::WriteLog;
        return Advance::Continue;

      case Phase::WriteLog:
        // Commit: append the WAL record.
        compute(engineProf, 350, user.heap, PatternKind::Hot);
        req = request(ServiceType::SysWrite, walFd,
                      params.logRecordBytes, user.heap.base);
        phase = Phase::Unlock;
        return Advance::Syscall;

      case Phase::Unlock:
        req = request(ServiceType::SysIpc, 1);
        ++done_;
        phase = (params.clientEvery &&
                 done_ % params.clientEvery == 0)
                    ? Phase::ClientPoll
                    : Phase::BeginTxn;
        return Advance::Syscall;

      case Phase::ClientPoll:
        req = request(ServiceType::SysPoll, sockFd, 1);
        phase = Phase::ClientReply;
        return Advance::Syscall;

      case Phase::ClientReply:
        {
            // Read the client's batch request, send the results.
            compute(engineProf, 300, user.heap);
            req = request(ServiceType::SysSocketcall, 1, sockFd,
                          2048);
            phase = Phase::BeginTxn;
            return Advance::Syscall;
        }
    }
    osp_panic("OltpWorkload: bad phase");
}

} // namespace osp
