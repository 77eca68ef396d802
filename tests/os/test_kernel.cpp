/** @file Tests for the synthetic kernel's service handlers. */

#include <gtest/gtest.h>

#include <memory>

#include "os/kernel.hh"
#include "sim/codegen.hh"
#include "stats/running_stats.hh"

namespace osp
{

/** Reaches the network stack and page cache, which no shipped code
 *  drives from outside the kernel. */
struct SyntheticKernelTestPeer
{
    static NetStack &net(SyntheticKernel &k) { return k.net_; }
    static PageCache &pageCache(SyntheticKernel &k)
    {
        return k.pageCache_;
    }
};

namespace
{

KernelParams
testParams()
{
    KernelParams p;
    p.seed = 11;
    p.pageCachePages = 64;
    p.vfs.numDirs = 6;
    p.vfs.filesPerDirMin = 2;
    p.vfs.filesPerDirMax = 4;
    p.timerPeriod = 0;  // no timer noise in unit tests
    p.opJitter = 0.0;   // deterministic plan sizes
    return p;
}

struct Invocation
{
    ServiceResult result;
    InstCount insts = 0;
};

/** Invoke a service, draining the plan and counting instructions. */
Invocation
run(SyntheticKernel &k, ServiceType type, SyscallArgs args,
    InstCount now = 0)
{
    CodeGenerator gen(1, 99);
    Invocation inv;
    inv.result = k.invoke(type, args, now, &gen);
    while (!gen.done()) {
        gen.next();
        ++inv.insts;
    }
    return inv;
}

TEST(Kernel, GettimeofdayIsTiny)
{
    SyntheticKernel k(testParams());
    auto inv = run(k, ServiceType::SysGettimeofday, {});
    EXPECT_GT(inv.insts, 100u);
    EXPECT_LT(inv.insts, 600u);
}

TEST(Kernel, OpenReturnsUsableFd)
{
    SyntheticKernel k(testParams());
    auto open = run(k, ServiceType::SysOpen, {0, 0, 0});
    std::uint64_t fd = open.result.value;
    auto close = run(k, ServiceType::SysClose, {fd, 0, 0});
    EXPECT_EQ(close.result.value, 0u);
}

TEST(Kernel, OpenColdCostsMoreThanWarm)
{
    SyntheticKernel k(testParams());
    auto cold = run(k, ServiceType::SysOpen, {0, 0, 0});
    run(k, ServiceType::SysClose, {cold.result.value, 0, 0});
    auto warm = run(k, ServiceType::SysOpen, {0, 0, 0});
    // Dentries cached: the second open plans fewer instructions.
    EXPECT_LT(warm.insts, cold.insts);
}

TEST(Kernel, ReadCachedVsUncachedPaths)
{
    SyntheticKernel k(testParams());
    std::uint32_t file = k.vfs().addFile(64 * 1024, 3);
    auto fd =
        run(k, ServiceType::SysOpen, {file, 0, 0}).result.value;

    auto cold = run(k, ServiceType::SysRead, {fd, 16384, 0x20000});
    EXPECT_EQ(cold.result.value, 16384u);

    // Re-read the same offset via a fresh fd: pages now cached.
    run(k, ServiceType::SysClose, {fd, 0, 0});
    auto fd2 =
        run(k, ServiceType::SysOpen, {file, 0, 0}).result.value;
    auto warm = run(k, ServiceType::SysRead, {fd2, 16384, 0x20000});
    EXPECT_EQ(warm.result.value, 16384u);
    // The miss path plans block I/O + page allocation on top of the
    // copy: clearly more instructions.
    EXPECT_GT(cold.insts, warm.insts + 500);
}

TEST(Kernel, ReadAdvancesOffsetToEof)
{
    SyntheticKernel k(testParams());
    std::uint32_t file = k.vfs().addFile(10000, 3);
    auto fd =
        run(k, ServiceType::SysOpen, {file, 0, 0}).result.value;
    EXPECT_EQ(run(k, ServiceType::SysRead, {fd, 8192, 0x20000})
                  .result.value,
              8192u);
    EXPECT_EQ(run(k, ServiceType::SysRead, {fd, 8192, 0x20000})
                  .result.value,
              1808u);
    auto eof = run(k, ServiceType::SysRead, {fd, 8192, 0x20000});
    EXPECT_EQ(eof.result.value, 0u);
    EXPECT_LT(eof.insts, 600u);  // EOF is a short path
}

TEST(Kernel, ReadSchedulesDiskCompletion)
{
    SyntheticKernel k(testParams());
    std::uint32_t file = k.vfs().addFile(64 * 1024, 3);
    auto fd =
        run(k, ServiceType::SysOpen, {file, 0, 0}).result.value;
    run(k, ServiceType::SysRead, {fd, 4096, 0x20000}, 1000);
    auto irq =
        k.pendingInterrupt(1000 + testParams().diskLatency);
    ASSERT_TRUE(irq.has_value());
    EXPECT_EQ(irq->type, ServiceType::IntDisk);
}

TEST(Kernel, ReadaheadMakesSequentialReadsCheap)
{
    SyntheticKernel k(testParams());
    std::uint32_t file = k.vfs().addFile(256 * 1024, 3);
    auto fd =
        run(k, ServiceType::SysOpen, {file, 0, 0}).result.value;
    auto first = run(k, ServiceType::SysRead, {fd, 4096, 0x20000});
    auto second = run(k, ServiceType::SysRead, {fd, 4096, 0x20000});
    // Readahead filled the next pages: the second read is the
    // cached path.
    EXPECT_LT(second.insts, first.insts);
}

TEST(Kernel, GetdentsOnceThenEof)
{
    SyntheticKernel k(testParams());
    auto fd = run(k, ServiceType::SysOpen, {0x40000000ULL, 0, 0})
                  .result.value;
    auto first = run(k, ServiceType::SysRead, {fd, 16384, 0x20000});
    EXPECT_EQ(first.result.value,
              48ULL * k.vfs().dirFiles(0).size());
    auto eof = run(k, ServiceType::SysRead, {fd, 16384, 0x20000});
    EXPECT_EQ(eof.result.value, 0u);
}

TEST(Kernel, SocketSendQueuesTxAndNicIrq)
{
    SyntheticKernel k(testParams());
    auto accept =
        run(k, ServiceType::SysSocketcall, {0, 0, 0});
    std::uint64_t fd = accept.result.value;
    auto sent =
        run(k, ServiceType::SysWrite, {fd, 8192, 0x20000}, 500);
    EXPECT_EQ(sent.result.value, 8192u);
    EXPECT_GT(SyntheticKernelTestPeer::net(k).pendingTxPackets(), 0u);
    auto irq = k.pendingInterrupt(500 + testParams().nicLatency);
    ASSERT_TRUE(irq.has_value());
    EXPECT_EQ(irq->type, ServiceType::IntNic);
}

TEST(Kernel, NicIrqCostScalesWithBacklog)
{
    SyntheticKernel k(testParams());
    auto fd = run(k, ServiceType::SysSocketcall, {0, 0, 0})
                  .result.value;
    run(k, ServiceType::SysWrite, {fd, 1448, 0x20000});
    auto small = run(k, ServiceType::IntNic, {});
    run(k, ServiceType::SysWrite, {fd, 40 * 1448, 0x20000});
    auto large = run(k, ServiceType::IntNic, {});
    EXPECT_GT(large.insts, small.insts + 1000);
}

TEST(Kernel, WritevCountsAsSend)
{
    SyntheticKernel k(testParams());
    auto fd = run(k, ServiceType::SysSocketcall, {0, 0, 0})
                  .result.value;
    auto inv = run(k, ServiceType::SysWritev, {fd, 16384, 3});
    EXPECT_EQ(inv.result.value, 16384u);
    EXPECT_GT(inv.insts, 4000u);  // copies dominate
}

TEST(Kernel, PollSynthesizesArrivalWhenIdle)
{
    SyntheticKernel k(testParams());
    auto fd = run(k, ServiceType::SysSocketcall, {0, 0, 0})
                  .result.value;
    auto wait = run(k, ServiceType::SysPoll, {fd, 2, 0});
    EXPECT_EQ(wait.result.value, 1u);
    // Data now pending: the next poll takes the fast path.
    auto fast = run(k, ServiceType::SysPoll, {fd, 2, 0});
    EXPECT_EQ(fast.result.value, 1u);
    EXPECT_LT(fast.insts, wait.insts);
}

TEST(Kernel, TimerTickHasTwoBehaviourPoints)
{
    KernelParams p = testParams();
    SyntheticKernel k(p);
    InstCount plain = 0;
    InstCount sched = 0;
    for (int i = 1; i <= 8; ++i) {
        auto inv = run(k, ServiceType::IntTimer, {});
        if (i % 4 == 0)
            sched = inv.insts;
        else
            plain = inv.insts;
    }
    EXPECT_GT(sched, plain + 300);
}

TEST(Kernel, PageFaultTracksFirstTouchOnly)
{
    SyntheticKernel k(testParams());
    EXPECT_TRUE(k.touchUserPage(0x5000));
    EXPECT_FALSE(k.touchUserPage(0x5000));
    EXPECT_FALSE(k.touchUserPage(0x5FFF));  // same page
    EXPECT_TRUE(k.touchUserPage(0x6000));
    // Kernel addresses never fault.
    EXPECT_FALSE(k.touchUserPage(0xC0000000ULL));
}

TEST(Kernel, PageFaultHandlerPlansZeroFill)
{
    SyntheticKernel k(testParams());
    auto inv = run(k, ServiceType::IntPageFault, {0x5000, 0, 0});
    // VMA walk + 4KB zero-fill (1024 copy ops) + entry/exit.
    EXPECT_GT(inv.insts, 1500u);
}

TEST(Kernel, FunctionalOnlyInvokeUpdatesState)
{
    SyntheticKernel k(testParams());
    std::uint32_t file = k.vfs().addFile(64 * 1024, 3);
    // App-only mode: null generator.
    auto fd = k.invoke(ServiceType::SysOpen, {file, 0, 0}, 0,
                       nullptr);
    auto res = k.invoke(ServiceType::SysRead,
                        {fd.value, 4096, 0x20000}, 0, nullptr);
    EXPECT_EQ(res.value, 4096u);
    // State advanced: page now cached.
    EXPECT_TRUE(
        SyntheticKernelTestPeer::pageCache(k).lookup(file, 0).has_value());
}

TEST(Kernel, BadFdDies)
{
    SyntheticKernel k(testParams());
    EXPECT_DEATH(run(k, ServiceType::SysRead, {63, 4096, 0}),
                 "bad file descriptor");
}

TEST(Kernel, FcntlCostVariesWithCommand)
{
    SyntheticKernel k(testParams());
    auto fd = run(k, ServiceType::SysSocketcall, {0, 0, 0})
                  .result.value;
    auto cmd0 = run(k, ServiceType::SysFcntl64, {fd, 0, 0});
    auto cmd3 = run(k, ServiceType::SysFcntl64, {fd, 3, 0});
    EXPECT_GT(cmd3.insts, cmd0.insts);
}

TEST(Kernel, StatReturnsSize)
{
    SyntheticKernel k(testParams());
    std::uint32_t file = k.vfs().addFile(12345, 3);
    auto inv =
        run(k, ServiceType::SysStat64, {file, 0x30000, 0});
    EXPECT_EQ(inv.result.value, 12345u);
}

TEST(Kernel, FileWritebackBurstEveryBatch)
{
    SyntheticKernel k(testParams());
    std::uint32_t file = k.vfs().addFile(4096, 3);
    auto fd =
        run(k, ServiceType::SysOpen, {file, 0, 0}).result.value;
    // Writes dirty one page each; the 64th dirty page plans an
    // extra writeback burst and schedules a disk completion.
    InstCount normal = 0;
    InstCount burst = 0;
    bool saw_burst = false;
    for (int i = 0; i < 64; ++i) {
        auto inv = run(k, ServiceType::SysWrite,
                       {fd, 4096, 0x20000}, 100);
        if (i == 62)
            normal = inv.insts;
        if (i == 63) {
            burst = inv.insts;
            saw_burst = true;
        }
    }
    ASSERT_TRUE(saw_burst);
    EXPECT_GT(burst, normal + 500);
    EXPECT_TRUE(
        k.pendingInterrupt(100 + testParams().diskLatency)
            .has_value());
}

TEST(Kernel, SocketRecvDrainsBuffered)
{
    SyntheticKernel k(testParams());
    auto fd = run(k, ServiceType::SysSocketcall, {0, 0, 0})
                  .result.value;
    std::uint32_t sock = 0;  // first socket
    SyntheticKernelTestPeer::net(k).deliverRx(sock, 1000);
    auto got =
        run(k, ServiceType::SysSocketcall, {2, fd, 600});
    EXPECT_EQ(got.result.value, 600u);
    auto rest =
        run(k, ServiceType::SysSocketcall, {2, fd, 600});
    EXPECT_EQ(rest.result.value, 400u);
}

TEST(Kernel, CloseFreesFdForReuse)
{
    SyntheticKernel k(testParams());
    auto a = run(k, ServiceType::SysOpen, {0, 0, 0}).result.value;
    run(k, ServiceType::SysClose, {a, 0, 0});
    auto b = run(k, ServiceType::SysOpen, {0, 0, 0}).result.value;
    EXPECT_EQ(a, b);
}

TEST(Kernel, JitterBoundsPlanSizes)
{
    KernelParams p = testParams();
    p.opJitter = 0.05;
    SyntheticKernel k(p);
    RunningStats sizes;
    for (int i = 0; i < 50; ++i) {
        auto inv = run(k, ServiceType::SysGettimeofday, {});
        sizes.add(static_cast<double>(inv.insts));
    }
    // Jitter produces variation, but bounded by +-5%.
    EXPECT_GT(sizes.stddev(), 0.0);
    EXPECT_GE(sizes.min(), sizes.mean() * 0.93);
    EXPECT_LE(sizes.max(), sizes.mean() * 1.07);
}

TEST(Kernel, BrkScalesWithPages)
{
    SyntheticKernel k(testParams());
    auto small = run(k, ServiceType::SysBrk, {4096, 0, 0});
    auto large = run(k, ServiceType::SysBrk, {64 * 4096, 0, 0});
    EXPECT_GT(large.insts, small.insts);
    EXPECT_EQ(large.result.value, 64u);
}

} // namespace
} // namespace osp
