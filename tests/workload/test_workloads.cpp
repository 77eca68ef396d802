/** @file Tests for the workload models and registry. */

#include <gtest/gtest.h>

#include <map>

#include "workload/netbench.hh"
#include "workload/oltp.hh"
#include "workload/registry.hh"
#include "workload/spec_like.hh"
#include "workload/unix_tools.hh"
#include "workload/webserver.hh"

namespace osp
{
namespace
{

/** Functionally run a workload against a kernel, tallying the
 *  syscall mix (no timing models). */
std::map<ServiceType, std::uint64_t>
drive(UserProgram &prog, SyntheticKernel &kernel,
      InstCount max_user = 5000000)
{
    std::map<ServiceType, std::uint64_t> mix;
    MicroOp op;
    ServiceRequest req;
    InstCount user = 0;
    while (user < max_user) {
        auto s = prog.step(op, req);
        if (s == UserProgram::Step::Done)
            break;
        if (s == UserProgram::Step::Op) {
            ++user;
            continue;
        }
        mix[req.type] += 1;
        ServiceResult res =
            kernel.invoke(req.type, req.args, user, nullptr);
        prog.onServiceReturn(req.type, res);
    }
    return mix;
}

TEST(AbWorkload, EmitsApacheSyscallMix)
{
    KernelParams kp = kernelParamsFor("ab-rand", 5);
    SyntheticKernel kernel(kp);
    AbParams p;
    p.warmupRequests = 2;
    p.measureRequests = 10;
    AbWorkload ab(kernel, p, 5);
    auto mix = drive(ab, kernel);

    // Every request: accept, ipc, poll, recv, stat, open, fcntl,
    // 2 gettimeofday, log write, 2 closes, >=1 read+writev.
    EXPECT_EQ(mix[ServiceType::SysSocketcall], 24u);  // accept+recv
    EXPECT_EQ(mix[ServiceType::SysIpc], 12u);
    EXPECT_EQ(mix[ServiceType::SysPoll], 12u);
    EXPECT_EQ(mix[ServiceType::SysStat64], 12u);
    EXPECT_EQ(mix[ServiceType::SysOpen], 13u);  // + access log
    EXPECT_EQ(mix[ServiceType::SysFcntl64], 12u);
    EXPECT_EQ(mix[ServiceType::SysGettimeofday], 24u);
    EXPECT_EQ(mix[ServiceType::SysClose], 24u);
    EXPECT_EQ(mix[ServiceType::SysWrite], 12u);
    EXPECT_GE(mix[ServiceType::SysRead], 12u);
    EXPECT_EQ(mix[ServiceType::SysRead], mix[ServiceType::SysWritev]);
}

TEST(AbWorkload, WarmupFlagTracksRequests)
{
    KernelParams kp = kernelParamsFor("ab-rand", 5);
    SyntheticKernel kernel(kp);
    AbParams p;
    p.warmupRequests = 3;
    p.measureRequests = 3;
    AbWorkload ab(kernel, p, 5);
    EXPECT_TRUE(ab.inWarmup());
    drive(ab, kernel);
    EXPECT_FALSE(ab.inWarmup());
}

TEST(AbWorkload, SeqServesAscendingSizes)
{
    KernelParams kp = kernelParamsFor("ab-seq", 5);
    SyntheticKernel kernel(kp);
    AbParams p;
    p.sequential = true;
    p.warmupRequests = 0;
    p.measureRequests = 16;
    AbWorkload ab(kernel, p, 5);

    // Track stat64 arguments (file ids) in order.
    std::vector<std::uint64_t> stat_order;
    MicroOp op;
    ServiceRequest req;
    for (;;) {
        auto s = ab.step(op, req);
        if (s == UserProgram::Step::Done)
            break;
        if (s == UserProgram::Step::Op)
            continue;
        if (req.type == ServiceType::SysStat64)
            stat_order.push_back(req.args.arg0);
        ab.onServiceReturn(
            req.type,
            kernel.invoke(req.type, req.args, 0, nullptr));
    }
    ASSERT_EQ(stat_order.size(), 16u);
    for (std::size_t i = 1; i < stat_order.size(); ++i)
        EXPECT_GE(stat_order[i], stat_order[i - 1]);
    // 16 requests over 8 documents: two per document.
    EXPECT_EQ(stat_order.front(), stat_order[1]);
}

TEST(DuWorkload, WalksWholeTree)
{
    KernelParams kp = kernelParamsFor("du", 5);
    kp.vfs.numDirs = 8;
    SyntheticKernel kernel(kp);
    UnixToolParams p;
    p.warmupDirs = 1;
    p.maxDirs = 8;
    DuWorkload du(kernel, p, 5);
    auto mix = drive(du, kernel);
    // One open/getdents/close per dir; one stat per file.
    EXPECT_EQ(mix[ServiceType::SysOpen], 8u);
    EXPECT_EQ(mix[ServiceType::SysClose], 8u);
    std::uint64_t files = 0;
    for (std::uint32_t d = 0; d < kernel.vfs().numDirs(); ++d)
        files += kernel.vfs().dirFiles(d).size();
    EXPECT_EQ(mix[ServiceType::SysStat64], files);
}

TEST(FindOdWorkload, ReadsEveryFileToEof)
{
    KernelParams kp = kernelParamsFor("find-od", 5);
    kp.vfs.numDirs = 4;
    SyntheticKernel kernel(kp);
    UnixToolParams p;
    p.warmupDirs = 1;
    p.maxDirs = 4;
    FindOdWorkload fo(kernel, p, 5);
    auto mix = drive(fo, kernel, 50000000);
    std::uint64_t files = 0;
    std::uint64_t bytes = 0;
    for (std::uint32_t d = 0; d < 4; ++d) {
        for (std::uint32_t f : kernel.vfs().dirFiles(d)) {
            ++files;
            bytes += kernel.vfs().fileSize(f);
        }
    }
    // Dirs + files + output log.
    EXPECT_EQ(mix[ServiceType::SysOpen], 4 + files + 1);
    EXPECT_EQ(mix[ServiceType::SysStat64], files);
    // Reads: getdents per dir + ceil(size/4096)+EOF per file.
    EXPECT_GT(mix[ServiceType::SysRead], bytes / 4096);
    // One formatted write per non-empty read.
    EXPECT_GE(mix[ServiceType::SysWrite], bytes / 4096);
}

TEST(IperfWorkload, WriteLoopWithTimestamps)
{
    KernelParams kp = kernelParamsFor("iperf", 5);
    SyntheticKernel kernel(kp);
    IperfParams p;
    p.warmupWrites = 0;
    p.measureWrites = 256;
    p.reportEvery = 64;
    IperfWorkload ip(kernel, p, 5);
    auto mix = drive(ip, kernel);
    EXPECT_EQ(mix[ServiceType::SysWrite], 256u);
    EXPECT_EQ(mix[ServiceType::SysGettimeofday], 4u);
    EXPECT_EQ(mix[ServiceType::SysSocketcall], 1u);  // connect
}

TEST(SpecWorkload, AlmostNoSyscalls)
{
    KernelParams kp = kernelParamsFor("gzip", 5);
    SyntheticKernel kernel(kp);
    SpecParams p;
    p.warmupOps = 0;
    p.measureOps = 500000;
    p.syscallEvery = 200000;
    SpecWorkload spec(kernel, p, 5);
    auto mix = drive(spec, kernel);
    std::uint64_t total = 0;
    for (auto &[t, n] : mix)
        total += n;
    EXPECT_LE(total, 3u);
}

TEST(OltpWorkload, TransactionSyscallMix)
{
    KernelParams kp = kernelParamsFor("oltp", 5);
    SyntheticKernel kernel(kp);
    OltpParams p;
    p.warmupTransactions = 2;
    p.measureTransactions = 18;
    p.clientEvery = 4;
    OltpWorkload oltp(kernel, p, 5);
    auto mix = drive(oltp, kernel);

    // Lock + unlock per transaction.
    EXPECT_EQ(mix[ServiceType::SysIpc], 40u);
    // One WAL append per commit.
    EXPECT_EQ(mix[ServiceType::SysWrite], 20u);
    // 1..maxReads record opens per transaction, plus the WAL open.
    EXPECT_GE(mix[ServiceType::SysOpen], 20u + 1);
    EXPECT_LE(mix[ServiceType::SysOpen],
              20u * p.maxReadsPerTxn + 1);
    // Record closes match record opens.
    EXPECT_EQ(mix[ServiceType::SysClose],
              mix[ServiceType::SysOpen] - 1);
    // A client round-trip every 4 transactions.
    EXPECT_EQ(mix[ServiceType::SysPoll], 5u);
    // accept + one send per round-trip.
    EXPECT_EQ(mix[ServiceType::SysSocketcall], 6u);
}

TEST(OltpWorkload, WarmupTracksTransactions)
{
    KernelParams kp = kernelParamsFor("oltp", 5);
    SyntheticKernel kernel(kp);
    OltpParams p;
    p.warmupTransactions = 3;
    p.measureTransactions = 3;
    OltpWorkload oltp(kernel, p, 5);
    EXPECT_TRUE(oltp.inWarmup());
    drive(oltp, kernel);
    EXPECT_FALSE(oltp.inWarmup());
}

TEST(OltpWorkload, RegistryBuildsOsIntensiveMachine)
{
    MachineConfig cfg;
    cfg.seed = 3;
    cfg.level = DetailLevel::Emulate;
    auto m = makeMachine("oltp", cfg, 0.2);
    const RunTotals &t = m->run();
    EXPECT_GT(t.osInstFraction(), 0.5);
    EXPECT_GT(t.osInvocations, 100u);
}

TEST(SpecWorkload, VariantNames)
{
    EXPECT_STREQ(specVariantName(SpecVariant::Gzip), "gzip");
    EXPECT_STREQ(specVariantName(SpecVariant::Swim), "swim");
}

TEST(Registry, AllWorkloadsConstructAndRunBriefly)
{
    for (const auto &name : allWorkloads()) {
        MachineConfig cfg;
        cfg.seed = 3;
        cfg.level = DetailLevel::Emulate;
        auto m = makeMachine(name, cfg, 0.05);
        const RunTotals &t = m->run(400000);
        EXPECT_GT(t.totalInsts(), 0u) << name;
    }
}

TEST(Registry, NamesAreConsistent)
{
    EXPECT_EQ(allWorkloads().size(), 9u);
    EXPECT_EQ(osIntensiveWorkloads().size(), 5u);
    EXPECT_EQ(specWorkloads().size(), 4u);
    for (const auto &n : allWorkloads())
        EXPECT_TRUE(isWorkload(n));
    for (const auto &n : extraWorkloads())
        EXPECT_TRUE(isWorkload(n));
    EXPECT_FALSE(isWorkload("nonesuch"));
}

TEST(Registry, UnknownWorkloadDies)
{
    MachineConfig cfg;
    EXPECT_DEATH(makeMachine("nonesuch", cfg), "unknown workload");
}

TEST(Registry, OsIntensiveHaveHighOsFraction)
{
    for (const auto &name : osIntensiveWorkloads()) {
        MachineConfig cfg;
        cfg.seed = 3;
        cfg.level = DetailLevel::Emulate;
        auto m = makeMachine(name, cfg, 0.1);
        const RunTotals &t = m->run(2000000);
        // The paper reports 67-99% OS instructions.
        EXPECT_GT(t.osInstFraction(), 0.5) << name;
    }
}

TEST(Registry, SpecHaveLowOsFraction)
{
    for (const auto &name : specWorkloads()) {
        MachineConfig cfg;
        cfg.seed = 3;
        cfg.level = DetailLevel::Emulate;
        // Uncapped: the initialization sweep (first-touch page
        // faults) must complete inside the skipped warm-up.
        auto m = makeMachine(name, cfg, 0.2);
        const RunTotals &t = m->run();
        EXPECT_LT(t.osInstFraction(), 0.05) << name;
    }
}

} // namespace
} // namespace osp
