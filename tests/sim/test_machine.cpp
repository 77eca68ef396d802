/** @file Tests for the Machine: mode switching, interval
 *  bookkeeping, interrupts, page faults and app-only mode. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "os/kernel.hh"
#include "sim/machine.hh"
#include "workload/netbench.hh"
#include "workload/registry.hh"
#include "workload/webserver.hh"

namespace osp
{
namespace
{

MachineConfig
testConfig()
{
    MachineConfig cfg;
    cfg.seed = 21;
    cfg.recordIntervals = true;
    return cfg;
}

/**
 * Forwards to a workload but keeps UserProgram's default
 * opBlockLean(), so the Machine gets every block lowered in full.
 * Blocks are cut to at most @p max_block ops; at 0 opBlock()
 * returns nothing, so every op comes through step(), the sequence
 * opBlock() must reproduce.
 */
class FullLoweringProgram : public UserProgram
{
  public:
    explicit FullLoweringProgram(std::unique_ptr<UserProgram> inner,
                                 std::size_t max_block = SIZE_MAX)
        : inner_(std::move(inner)), maxBlock_(max_block)
    {
    }

    Step
    step(MicroOp &op, ServiceRequest &req) override
    {
        return inner_->step(op, req);
    }

    std::size_t
    opBlock(MicroOp *buf, std::size_t cap) override
    {
        return maxBlock_
                   ? inner_->opBlock(buf, std::min(cap, maxBlock_))
                   : 0;
    }

    void
    onServiceReturn(ServiceType type, ServiceResult result) override
    {
        inner_->onServiceReturn(type, result);
    }

    bool inWarmup() const override { return inner_->inWarmup(); }
    const char *name() const override { return inner_->name(); }

  private:
    std::unique_ptr<UserProgram> inner_;
    std::size_t maxBlock_;
};

std::unique_ptr<Machine>
makeIperf(MachineConfig cfg, std::uint32_t writes = 50,
          std::uint32_t warmup = 0, bool full_lowering = false,
          std::size_t max_block = SIZE_MAX)
{
    KernelParams kp = kernelParamsFor("iperf", cfg.seed);
    auto kernel = std::make_unique<SyntheticKernel>(kp);
    IperfParams p;
    p.warmupWrites = warmup;
    p.measureWrites = writes;
    p.reportEvery = 16;
    std::unique_ptr<UserProgram> wl =
        std::make_unique<IperfWorkload>(*kernel, p, cfg.seed);
    if (full_lowering)
        wl = std::make_unique<FullLoweringProgram>(std::move(wl),
                                                   max_block);
    return std::make_unique<Machine>(cfg, std::move(wl),
                                     std::move(kernel));
}

TEST(Machine, RunsToCompletionAndAccounts)
{
    auto m = makeIperf(testConfig());
    const RunTotals &t = m->run();
    EXPECT_GT(t.appInsts, 0u);
    EXPECT_GT(t.osInsts, t.appInsts);  // iperf is OS-dominated
    EXPECT_GT(t.totalCycles(), t.totalInsts() / 4);
    EXPECT_EQ(t.osPredicted, 0u);  // no controller attached
    EXPECT_EQ(t.osSimulated, t.osInvocations);
}

TEST(Machine, SecondRunDies)
{
    auto m = makeIperf(testConfig());
    m->run();
    EXPECT_DEATH(m->run(), "once");
}

TEST(Machine, MaxInstsBoundsTheRun)
{
    auto m = makeIperf(testConfig(), 100000);
    const RunTotals &t = m->run(50000);
    EXPECT_GE(t.totalInsts(), 50000u);
    EXPECT_LT(t.totalInsts(), 200000u);
}

TEST(Machine, IntervalLogMatchesTotals)
{
    auto m = makeIperf(testConfig());
    const RunTotals &t = m->run();
    const auto &log = m->intervals();
    EXPECT_EQ(log.size(), t.osInvocations);
    InstCount os_insts = 0;
    Cycles os_cycles = 0;
    for (const auto &rec : log) {
        EXPECT_TRUE(rec.detailed);
        os_insts += rec.insts;
        os_cycles += rec.cycles;
    }
    EXPECT_EQ(os_insts, t.osInsts);
    EXPECT_EQ(os_cycles, t.osSimCycles);
}

TEST(Machine, PerServiceInvocationIndicesAreDense)
{
    auto m = makeIperf(testConfig());
    m->run();
    std::array<std::uint64_t, numServiceTypes> next{};
    for (const auto &rec : m->intervals()) {
        auto idx = static_cast<int>(rec.type);
        EXPECT_EQ(rec.invocation, next[idx]);
        ++next[idx];
    }
}

TEST(Machine, InterruptsDelivered)
{
    auto m = makeIperf(testConfig());
    const RunTotals &t = m->run();
    // Socket writes schedule NIC interrupts.
    EXPECT_GT(t.perService[static_cast<int>(ServiceType::IntNic)]
                  .invocations,
              0u);
}

TEST(Machine, TimerFiresAtConfiguredPeriod)
{
    MachineConfig cfg = testConfig();
    KernelParams kp = kernelParamsFor("iperf", cfg.seed);
    kp.timerPeriod = 100000;
    auto kernel = std::make_unique<SyntheticKernel>(kp);
    IperfParams p;
    p.warmupWrites = 0;
    p.measureWrites = 200;
    auto wl =
        std::make_unique<IperfWorkload>(*kernel, p, cfg.seed);
    Machine m(cfg, std::move(wl), std::move(kernel));
    const RunTotals &t = m.run();
    auto ticks =
        t.perService[static_cast<int>(ServiceType::IntTimer)]
            .invocations;
    EXPECT_NEAR(static_cast<double>(ticks),
                static_cast<double>(t.totalInsts()) / 100000.0,
                2.0);
}

TEST(Machine, PageFaultsOnFirstTouchOnly)
{
    auto m = makeIperf(testConfig());
    const RunTotals &t = m->run();
    auto faults =
        t.perService[static_cast<int>(ServiceType::IntPageFault)]
            .invocations;
    // iperf touches its 16KB buffer + small heap/stack/code data
    // regions once each.
    EXPECT_GT(faults, 0u);
    EXPECT_LT(faults, 50u);
}

TEST(Machine, AppOnlySkipsKernelEntirely)
{
    MachineConfig cfg = testConfig();
    cfg.appOnly = true;
    auto m = makeIperf(cfg);
    const RunTotals &t = m->run();
    EXPECT_EQ(t.osInsts, 0u);
    EXPECT_EQ(t.osInvocations, 0u);
    EXPECT_GT(t.appInsts, 0u);
    EXPECT_GT(t.appCycles, 0u);
}

TEST(Machine, WarmupResetsStatistics)
{
    MachineConfig cfg = testConfig();
    auto warm = makeIperf(cfg, 50, 20);
    const RunTotals &t = warm->run();
    auto no_warm = makeIperf(cfg, 50, 0);
    const RunTotals &u = no_warm->run();
    // Warm-up requests are excluded from the measured totals, so
    // both runs measure ~50 writes' worth of work.
    double ratio = static_cast<double>(t.totalInsts()) /
                   static_cast<double>(u.totalInsts());
    EXPECT_NEAR(ratio, 1.0, 0.15);
}

TEST(Machine, EmulateLevelCountsButNoCycles)
{
    MachineConfig cfg = testConfig();
    cfg.level = DetailLevel::Emulate;
    auto m = makeIperf(cfg);
    const RunTotals &t = m->run();
    EXPECT_GT(t.totalInsts(), 0u);
    EXPECT_EQ(t.totalCycles(), 0u);
    EXPECT_EQ(t.measuredMem.l2Accesses, 0u);
}

TEST(Machine, DetailLevelsOrderPlausibly)
{
    // Same workload, increasing detail: nocache variants are faster
    // (fewer cycles) than cache variants is NOT guaranteed, but
    // inorder must be slower (more cycles) than OOO at equal cache
    // config.
    Cycles inorder_cycles = 0;
    Cycles ooo_cycles = 0;
    {
        MachineConfig cfg = testConfig();
        cfg.level = DetailLevel::InOrderCache;
        auto m = makeIperf(cfg);
        inorder_cycles = m->run().totalCycles();
    }
    {
        MachineConfig cfg = testConfig();
        cfg.level = DetailLevel::OooCache;
        auto m = makeIperf(cfg);
        ooo_cycles = m->run().totalCycles();
    }
    EXPECT_GT(inorder_cycles, ooo_cycles);
}

TEST(Machine, InstructionCountsAreDetailInvariant)
{
    // The signature property: instruction counts must be identical
    // across detail levels.
    InstCount detailed = 0;
    InstCount emulated = 0;
    {
        MachineConfig cfg = testConfig();
        cfg.level = DetailLevel::OooCache;
        auto m = makeIperf(cfg);
        detailed = m->run().totalInsts();
    }
    {
        MachineConfig cfg = testConfig();
        cfg.level = DetailLevel::Emulate;
        auto m = makeIperf(cfg);
        emulated = m->run().totalInsts();
    }
    EXPECT_EQ(detailed, emulated);
}

TEST(Machine, DeterministicAcrossRuns)
{
    auto a = makeIperf(testConfig());
    auto b = makeIperf(testConfig());
    const RunTotals &ta = a->run();
    const RunTotals &tb = b->run();
    EXPECT_EQ(ta.totalInsts(), tb.totalInsts());
    EXPECT_EQ(ta.totalCycles(), tb.totalCycles());
    EXPECT_EQ(ta.measuredMem.l2Misses, tb.measuredMem.l2Misses);
}

TEST(Machine, SeedChangesOutcome)
{
    MachineConfig cfg = testConfig();
    auto a = makeIperf(cfg);
    cfg.seed = 22;
    auto b = makeIperf(cfg);
    EXPECT_NE(a->run().totalCycles(), b->run().totalCycles());
}

TEST(Machine, PollutionPolicyNames)
{
    EXPECT_STREQ(pollutionPolicyName(PollutionPolicy::None), "none");
    EXPECT_STREQ(
        pollutionPolicyName(PollutionPolicy::PaperInvalidateApp),
        "paper-invalidate-app");
    EXPECT_STREQ(pollutionPolicyName(PollutionPolicy::Footprint),
                 "footprint");
}

TEST(Machine, MissingWorkloadDies)
{
    MachineConfig cfg;
    KernelParams kp;
    EXPECT_DEATH(Machine(cfg, nullptr,
                         std::make_unique<SyntheticKernel>(kp)),
                 "workload");
}

TEST(Machine, MissingKernelDiesUnlessAppOnly)
{
    MachineConfig cfg = testConfig();
    KernelParams kp = kernelParamsFor("iperf", cfg.seed);
    auto kernel = std::make_unique<SyntheticKernel>(kp);
    IperfParams p;
    auto wl = std::make_unique<IperfWorkload>(*kernel, p, 1);
    EXPECT_DEATH(Machine(cfg, std::move(wl), nullptr), "kernel");
}

/** The block size is a pure throughput choice: blocks of any size
 *  the program hands out, and none at all (every op through
 *  step()), must produce the exact same run as the Machine's own
 *  blocks — same instruction counts, cycles, service invocations
 *  and memory-system counters. */
TEST(Machine, BlockSizeDoesNotChangeOutcome)
{
    MachineConfig cfg = testConfig();
    cfg.level = DetailLevel::InOrderCache;
    auto ref = makeIperf(cfg, 200);
    const RunTotals want = ref->run();
    EXPECT_GT(want.appInsts, 0u);
    EXPECT_GT(want.osInvocations, 0u);
    for (std::size_t block : {0u, 1u, 2u, 64u, 256u}) {
        auto m = makeIperf(cfg, 200, 0, true, block);
        const RunTotals &t = m->run();
        EXPECT_EQ(t.appInsts, want.appInsts) << "block " << block;
        EXPECT_EQ(t.osInsts, want.osInsts) << "block " << block;
        EXPECT_EQ(t.osPredInsts, want.osPredInsts);
        EXPECT_EQ(t.appCycles, want.appCycles) << "block " << block;
        EXPECT_EQ(t.osSimCycles, want.osSimCycles);
        EXPECT_EQ(t.osPredCycles, want.osPredCycles);
        EXPECT_EQ(t.osInvocations, want.osInvocations);
        EXPECT_EQ(t.measuredMem.l1dAccesses,
                  want.measuredMem.l1dAccesses);
        EXPECT_EQ(t.measuredMem.l1dMisses,
                  want.measuredMem.l1dMisses);
        EXPECT_EQ(t.measuredMem.l2Misses,
                  want.measuredMem.l2Misses);
    }
}

/** max_insts must stop the run at the same point for every block
 *  size, step() alone included (the batched loop may not overshoot
 *  the cap). */
TEST(Machine, MaxInstsExactUnderAppOnlyEmulation)
{
    MachineConfig cfg = testConfig();
    cfg.level = DetailLevel::Emulate;
    cfg.appOnly = true;
    EXPECT_EQ(makeIperf(cfg, 100000)->run(12345).totalInsts(),
              12345u);
    for (std::size_t block : {0u, 1u, 7u, 64u}) {
        auto m = makeIperf(cfg, 100000, 0, true, block);
        const RunTotals &t = m->run(12345);
        EXPECT_EQ(t.totalInsts(), 12345u) << "block " << block;
    }
}

void
expectSameMem(const HierarchyCounts &got, const HierarchyCounts &want)
{
    EXPECT_EQ(got.l1iAccesses, want.l1iAccesses);
    EXPECT_EQ(got.l1iMisses, want.l1iMisses);
    EXPECT_EQ(got.l1dAccesses, want.l1dAccesses);
    EXPECT_EQ(got.l1dMisses, want.l1dMisses);
    EXPECT_EQ(got.l2Accesses, want.l2Accesses);
    EXPECT_EQ(got.l2Misses, want.l2Misses);
}

void
expectSameTotals(const RunTotals &got, const RunTotals &want)
{
    EXPECT_EQ(got.appInsts, want.appInsts);
    EXPECT_EQ(got.osInsts, want.osInsts);
    EXPECT_EQ(got.osPredInsts, want.osPredInsts);
    EXPECT_EQ(got.appCycles, want.appCycles);
    EXPECT_EQ(got.osSimCycles, want.osSimCycles);
    EXPECT_EQ(got.osPredCycles, want.osPredCycles);
    EXPECT_EQ(got.osInvocations, want.osInvocations);
    EXPECT_EQ(got.osSimulated, want.osSimulated);
    EXPECT_EQ(got.osPredicted, want.osPredicted);
    expectSameMem(got.measuredMem, want.measuredMem);
    expectSameMem(got.predictedMem, want.predictedMem);
    for (std::size_t i = 0; i < got.perService.size(); ++i) {
        EXPECT_EQ(got.perService[i].invocations,
                  want.perService[i].invocations);
        EXPECT_EQ(got.perService[i].insts, want.perService[i].insts);
        EXPECT_EQ(got.perService[i].cycles,
                  want.perService[i].cycles);
    }
}

void
expectSameRun(Machine &got, Machine &want)
{
    expectSameTotals(got.totals(), want.totals());
    ASSERT_EQ(got.sampleLog().size(), want.sampleLog().size());
    for (std::size_t i = 0; i < got.sampleLog().size(); ++i) {
        EXPECT_EQ(got.sampleLog()[i].index, want.sampleLog()[i].index);
        EXPECT_EQ(got.sampleLog()[i].appCycles,
                  want.sampleLog()[i].appCycles);
        EXPECT_EQ(got.sampleLog()[i].appInsts,
                  want.sampleLog()[i].appInsts);
    }
    ASSERT_EQ(got.intervals().size(), want.intervals().size());
    for (std::size_t i = 0; i < got.intervals().size(); ++i) {
        const IntervalRecord &a = got.intervals()[i];
        const IntervalRecord &b = want.intervals()[i];
        EXPECT_EQ(a.type, b.type);
        EXPECT_EQ(a.invocation, b.invocation);
        EXPECT_EQ(a.insts, b.insts);
        EXPECT_EQ(a.detailed, b.detailed);
        EXPECT_EQ(a.cycles, b.cycles);
        expectSameMem(a.mem, b.mem);
    }
}

void
expectSameProfile(const IntervalProfiler &got,
                  const IntervalProfiler &want)
{
    EXPECT_EQ(got.fullIntervals(), want.fullIntervals());
    EXPECT_EQ(got.tailInsts(), want.tailInsts());
    ASSERT_EQ(got.intervals().size(), want.intervals().size());
    for (std::size_t i = 0; i < got.intervals().size(); ++i) {
        const IntervalFeatures &a = got.intervals()[i];
        const IntervalFeatures &b = want.intervals()[i];
        EXPECT_EQ(a.ops, b.ops) << i;
        EXPECT_EQ(a.loads, b.loads) << i;
        EXPECT_EQ(a.stores, b.stores) << i;
        EXPECT_EQ(a.branches, b.branches) << i;
        EXPECT_EQ(a.fp, b.fp) << i;
        EXPECT_EQ(a.taken, b.taken) << i;
        EXPECT_EQ(a.svcInvocations, b.svcInvocations) << i;
        EXPECT_EQ(a.svcInsts, b.svcInsts) << i;
        EXPECT_EQ(a.svcCounts, b.svcCounts) << i;
    }
}

/** Lean lowering of the app blocks no engine executes is a pure
 *  speed-up: against a wrapper that always lowers in full, the run
 *  must match exactly — at OooCache with a sample plan (warm-up and
 *  fast-forwarded intervals lean, sampled ones full), at OooCache
 *  without one (warm-up only) and in an Emulate-level profiling
 *  pass (every block lean). */
TEST(Machine, LeanAppBlocksDoNotChangeOutcome)
{
    constexpr InstCount kIntervalLen = 1000;
    MachineConfig emu = testConfig();
    emu.level = DetailLevel::Emulate;
    IntervalProfiler lean_profile(kIntervalLen);
    IntervalProfiler full_profile(kIntervalLen);
    auto lean_emu = makeIperf(emu, 200, 20);
    auto full_emu = makeIperf(emu, 200, 20, true);
    lean_emu->setIntervalProfiler(&lean_profile);
    full_emu->setIntervalProfiler(&full_profile);
    lean_emu->run();
    full_emu->run();
    expectSameRun(*lean_emu, *full_emu);
    expectSameProfile(lean_profile, full_profile);
    ASSERT_GT(lean_profile.fullIntervals(), 8u);

    // Every third interval sampled; the rest fast-forward.
    SamplePlan plan;
    plan.intervalLen = kIntervalLen;
    plan.fullIntervals = lean_profile.fullIntervals();
    plan.sampledMask.resize(plan.fullIntervals);
    for (std::size_t i = 0; i < plan.sampledMask.size(); ++i)
        plan.sampledMask[i] = i % 3 == 1;

    const SamplePlan *plans[] = {&plan, nullptr};
    for (const SamplePlan *p : plans) {
        MachineConfig cfg = testConfig();
        cfg.level = DetailLevel::OooCache;
        auto lean = makeIperf(cfg, 200, 20);
        auto full = makeIperf(cfg, 200, 20, true);
        lean->setSamplePlan(p);
        full->setSamplePlan(p);
        lean->run();
        full->run();
        expectSameRun(*lean, *full);
        EXPECT_GT(lean->totals().appCycles, 0u);
        if (p) {
            EXPECT_GT(lean->sampleLog().size(), 0u);
            EXPECT_LT(lean->sampleLog().size(), plan.fullIntervals);
        }
    }
}

/** A workload at every level a sampled cell uses: Phase 1's
 *  Emulate and the two cached timing engines. */
struct ForkCase
{
    std::string workload;
    DetailLevel level;
};

std::vector<ForkCase>
forkCases()
{
    std::vector<std::string> names = allWorkloads();
    for (const std::string &w : extraWorkloads())
        names.push_back(w);
    std::vector<ForkCase> cases;
    for (const std::string &w : names)
        for (DetailLevel level :
             {DetailLevel::Emulate, DetailLevel::InOrderCache,
              DetailLevel::OooCache})
            cases.push_back({w, level});
    return cases;
}

class ForkEquivalence : public ::testing::TestWithParam<ForkCase>
{
};

/**
 * A machine forked where warm-up ends, and the original resumed
 * after the fork, must each run the measured part exactly as a
 * fresh machine does: same totals, OS-interval log, sample log
 * and (at Emulate, the Phase-1 shape) interval profile. A sample
 * plan puts fast-forwarded and sampled intervals in every run.
 */
TEST_P(ForkEquivalence, ForkAndResumedOriginalMatchAFreshRun)
{
    constexpr InstCount kIntervalLen = 5000;
    MachineConfig cfg = testConfig();
    cfg.level = GetParam().level;
    const std::string &name = GetParam().workload;
    // A SPEC-like program enters the kernel once per 1.5M app
    // instructions: this scale gives its measured part one entry.
    const bool spec = std::find(specWorkloads().begin(),
                                specWorkloads().end(),
                                name) != specWorkloads().end();
    const double kScale = spec ? 0.4 : 0.05;
    const bool profile = cfg.level == DetailLevel::Emulate;

    SamplePlan plan;
    plan.intervalLen = kIntervalLen;
    plan.fullIntervals = 48;
    plan.sampledMask.resize(plan.fullIntervals);
    for (std::size_t i = 0; i < plan.sampledMask.size(); ++i)
        plan.sampledMask[i] = i % 3 == 0;

    IntervalProfiler fresh_profile(kIntervalLen);
    auto fresh = makeMachine(name, cfg, kScale);
    fresh->setSamplePlan(&plan);
    if (profile)
        fresh->setIntervalProfiler(&fresh_profile);
    fresh->run();
    ASSERT_GT(fresh->totals().appInsts, 0u);
    ASSERT_GT(fresh->totals().osInvocations, 0u);
    ASSERT_GT(fresh->sampleLog().size(), 0u);

    auto original = makeMachine(name, cfg, kScale);
    original->runWarmup();
    EXPECT_FALSE(original->workload().inWarmup());
    EXPECT_EQ(original->totals().totalInsts(), 0u);
    std::unique_ptr<Machine> copy = original->fork(cfg);

    IntervalProfiler resumed_profile(kIntervalLen);
    original->setSamplePlan(&plan);
    if (profile)
        original->setIntervalProfiler(&resumed_profile);
    original->run();
    {
        SCOPED_TRACE("resumed original");
        expectSameRun(*original, *fresh);
        if (profile)
            expectSameProfile(resumed_profile, fresh_profile);
    }

    // The fork shares nothing with the original: it runs after the
    // original has run to the end and been destroyed.
    original.reset();
    IntervalProfiler fork_profile(kIntervalLen);
    copy->setSamplePlan(&plan);
    if (profile)
        copy->setIntervalProfiler(&fork_profile);
    copy->run();
    SCOPED_TRACE("fork");
    expectSameRun(*copy, *fresh);
    if (profile)
        expectSameProfile(fork_profile, fresh_profile);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, ForkEquivalence, ::testing::ValuesIn(forkCases()),
    [](const ::testing::TestParamInfo<ForkCase> &info) {
        std::string name = info.param.workload + "_" +
                           detailLevelName(info.param.level);
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

/** A program that never leaves warm-up, and counts the steps it is
 *  asked for after it said Done. */
class EndlessWarmupProgram : public UserProgram
{
  public:
    explicit EndlessWarmupProgram(std::unique_ptr<UserProgram> inner)
        : inner_(std::move(inner))
    {
    }

    Step
    step(MicroOp &op, ServiceRequest &req) override
    {
        if (done_) {
            ++stepsAfterDone;
            return Step::Done;
        }
        Step s = inner_->step(op, req);
        done_ = s == Step::Done;
        return s;
    }

    void
    onServiceReturn(ServiceType type, ServiceResult result) override
    {
        inner_->onServiceReturn(type, result);
    }

    bool inWarmup() const override { return true; }
    const char *name() const override { return inner_->name(); }

    int stepsAfterDone = 0;

  private:
    std::unique_ptr<UserProgram> inner_;
    bool done_ = false;
};

/** A program that finishes inside its warm-up: runWarmup() stops at
 *  the end of the program, and run() does not step it again. */
TEST(Machine, ProgramThatEndsInWarmupIsNotSteppedAgain)
{
    MachineConfig cfg = testConfig();
    KernelParams kp = kernelParamsFor("iperf", cfg.seed);
    auto kernel = std::make_unique<SyntheticKernel>(kp);
    IperfParams p;
    p.measureWrites = 20;
    auto wrapped = std::make_unique<EndlessWarmupProgram>(
        std::make_unique<IperfWorkload>(*kernel, p, cfg.seed));
    EndlessWarmupProgram &program = *wrapped;
    Machine m(cfg, std::move(wrapped), std::move(kernel));
    m.runWarmup();
    const InstCount warmup_insts = m.totals().totalInsts();
    EXPECT_GT(warmup_insts, 0u);
    m.run();
    EXPECT_EQ(program.stepsAfterDone, 0);
    // Never out of warm-up: the statistics were never reset.
    EXPECT_EQ(m.totals().totalInsts(), warmup_insts);
}

TEST(Machine, RunWarmupAfterRunDies)
{
    auto m = makeIperf(testConfig(), 50, 10);
    m->run();
    EXPECT_DEATH(m->runWarmup(), "once");
}

TEST(Machine, SecondRunWarmupDies)
{
    auto m = makeIperf(testConfig(), 50, 10);
    m->runWarmup();
    EXPECT_DEATH(m->runWarmup(), "once");
}

TEST(Machine, ForkAfterRunDies)
{
    auto m = makeIperf(testConfig(), 50, 10);
    m->run();
    EXPECT_DEATH(m->fork(testConfig()), "after run");
}

/** A program without a clone() cannot be forked: fork() dies
 *  instead of handing back a machine that would re-run warm-up. */
TEST(Machine, ForkOfUncopyableProgramDies)
{
    auto m = makeIperf(testConfig(), 50, 10, true);
    m->runWarmup();
    EXPECT_DEATH(m->fork(testConfig()), "cannot be copied");
}

} // namespace
} // namespace osp
