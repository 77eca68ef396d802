/** @file Integration tests for acceleration configurations beyond
 *  the defaults: profile warm starts, detail-level sweeps, and
 *  determinism under acceleration. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/accelerator.hh"
#include "core/report.hh"
#include "workload/registry.hh"

namespace osp
{
namespace
{

PredictorParams
smallParams()
{
    PredictorParams pp;
    pp.warmupInvocations = 40;
    pp.learningWindow = 60;
    return pp;
}

TEST(ProfileWarmStart, RaisesCoverageOnSecondRun)
{
    MachineConfig cfg;
    cfg.seed = 42;

    auto first = makeMachine("iperf", cfg, 0.3);
    Accelerator trainer(smallParams());
    first->setController(&trainer);
    double cold_coverage = first->run().coverage();

    std::ostringstream profile;
    trainer.saveState(profile);

    auto second = makeMachine("iperf", cfg, 0.3);
    Accelerator warmed(smallParams());
    std::istringstream in(profile.str());
    ASSERT_TRUE(warmed.loadState(in));
    second->setController(&warmed);
    double warm_coverage = second->run().coverage();

    EXPECT_GT(warm_coverage, cold_coverage + 0.1);
}

TEST(ProfileWarmStart, SameRunStaysAccurate)
{
    MachineConfig cfg;
    cfg.seed = 42;
    auto ref = makeMachine("iperf", cfg, 0.3);
    Cycles full = ref->run().totalCycles();

    auto trainer_machine = makeMachine("iperf", cfg, 0.3);
    Accelerator trainer(smallParams());
    trainer_machine->setController(&trainer);
    trainer_machine->run();
    std::ostringstream profile;
    trainer.saveState(profile);

    auto replay = makeMachine("iperf", cfg, 0.3);
    Accelerator warmed(smallParams());
    std::istringstream in(profile.str());
    ASSERT_TRUE(warmed.loadState(in));
    replay->setController(&warmed);
    const RunTotals &t = replay->run();
    // Frozen profiles inherit the training run's thermal bias, so
    // the bound is looser than online learning's (the abl5 bench
    // quantifies this at full scale).
    EXPECT_LT(absError(static_cast<double>(t.totalCycles()),
                       static_cast<double>(full)),
              0.25);
}

TEST(DetailLevels, AccelerationWorksOnInOrderEngine)
{
    MachineConfig cfg;
    cfg.seed = 42;
    cfg.level = DetailLevel::InOrderCache;
    auto ref = makeMachine("du", cfg, 0.4);
    Cycles full = ref->run().totalCycles();

    auto m = makeMachine("du", cfg, 0.4);
    Accelerator accel(smallParams());
    m->setController(&accel);
    const RunTotals &t = m->run();
    EXPECT_GT(t.coverage(), 0.2);
    EXPECT_LT(absError(static_cast<double>(t.totalCycles()),
                       static_cast<double>(full)),
              0.15);
}

TEST(DetailLevels, ControllerInertInEmulateRuns)
{
    // Regression: a controller attached to an Emulate-level run
    // must be completely inert — no level decisions, no recorded
    // outcomes, no audit/prediction counters. A two-phase sampled
    // run reuses one accelerator across a fast Emulate pass and a
    // detailed pass; a live controller in phase 1 would
    // double-count every service into the audit ledger.
    MachineConfig cfg;
    cfg.seed = 42;
    cfg.level = DetailLevel::Emulate;
    auto bare = makeMachine("du", cfg, 0.2);
    const RunTotals ref = bare->run();

    auto m = makeMachine("du", cfg, 0.2);
    Accelerator accel(smallParams());
    m->setController(&accel);
    const RunTotals &t = m->run();
    EXPECT_EQ(t.totalCycles(), 0u);
    // Identical to the controller-less run: emulated services
    // still count as zero-time "predicted" services, but none of
    // that routes through the controller.
    EXPECT_EQ(t.osPredicted, ref.osPredicted);
    EXPECT_EQ(t.osSimulated, ref.osSimulated);
    EXPECT_EQ(t.osPredCycles, ref.osPredCycles);
    EXPECT_EQ(t.osInsts, ref.osInsts);
    EXPECT_EQ(t.appInsts, ref.appInsts);

    ServicePredictor::Stats s = accel.aggregateStats();
    EXPECT_EQ(s.warmupRuns, 0u);
    EXPECT_EQ(s.learnedRuns, 0u);
    EXPECT_EQ(s.predictedRuns, 0u);
    EXPECT_EQ(s.audits, 0u);
}

TEST(Determinism, AcceleratedRunsAreBitIdentical)
{
    auto run_once = [] {
        MachineConfig cfg;
        cfg.seed = 77;
        auto m = makeMachine("find-od", cfg, 0.3);
        Accelerator accel(smallParams());
        m->setController(&accel);
        const RunTotals &t = m->run();
        return std::tuple(t.totalCycles(), t.osPredicted,
                          t.predictedMem.l2Misses,
                          t.measuredMem.l2Misses);
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(PredictorStats, CountersPartitionDetailedRuns)
{
    // Every detailed service run is exactly one of: a warm-up run,
    // a run recorded outside an audit, an audit, or an audit's
    // re-warm run. A passing audit is recorded but counts only as
    // an audit.
    MachineConfig cfg;
    cfg.seed = 7;
    auto m = makeMachine("ab-seq", cfg, 0.25);
    PredictorParams pp;
    pp.warmupInvocations = 20;
    pp.learningWindow = 30;
    pp.auditEvery = 10;
    Accelerator accel(pp);
    m->setController(&accel);
    const RunTotals &t = m->run();

    ServicePredictor::Stats s = accel.aggregateStats();
    EXPECT_GT(s.learnedRuns, 0u);
    EXPECT_GT(s.audits, s.auditFailures);
    EXPECT_GT(s.auditWarmupRuns, 0u);
    EXPECT_GT(s.driftResets, 0u);
    EXPECT_EQ(t.osSimulated, s.warmupRuns + s.learnedRuns +
                                 s.audits + s.auditWarmupRuns);
    EXPECT_EQ(t.osPredicted, s.predictedRuns);
}

} // namespace
} // namespace osp
