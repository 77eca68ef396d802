/** @file Tests for the repository's extensions beyond the paper:
 *  PLT serialization / cross-run reuse, audit sampling, and
 *  adaptive warm-up. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/accelerator.hh"
#include "service_predictor_peer.hh"

namespace osp
{
namespace
{

ServiceMetrics
serviceMetrics(InstCount insts, Cycles cycles)
{
    ServiceMetrics m;
    m.insts = insts;
    m.cycles = cycles;
    m.mem.l2Misses = cycles / 500;
    return m;
}

TEST(ClusterSnapshot, RoundTripPreservesPrediction)
{
    ScaledCluster original(serviceMetrics(1000, 5000), 0.05);
    original.add(serviceMetrics(1020, 5200));
    ScaledCluster restored(original.snapshot(), 0.05);

    // distance(0) is the centroid.
    EXPECT_DOUBLE_EQ(restored.distance(0), original.distance(0));
    EXPECT_EQ(restored.count(), original.count());
    EXPECT_EQ(restored.predict().cycles,
              original.predict().cycles);
    EXPECT_EQ(restored.predict().mem.l2Misses,
              original.predict().mem.l2Misses);
    EXPECT_TRUE(restored.matches(1010));
    EXPECT_NEAR(restored.cyclesStats().stddev(),
                original.cyclesStats().stddev(), 1e-6);
}

TEST(ProfileSerialization, SaveLoadRoundTrip)
{
    PredictorParams pp;
    pp.warmupInvocations = 0;
    pp.learningWindow = 2;
    Accelerator trained(pp);

    ServiceController::IntervalOutcome o;
    o.type = ServiceType::SysRead;
    o.detailed = true;
    o.insts = 1000;
    o.cycles = 5000;
    o.mem.l2Misses = 10;
    trained.onServiceEnd(o);
    o.invocation = 1;
    o.cycles = 7000;
    trained.onServiceEnd(o);

    std::ostringstream oss;
    trained.saveState(oss);

    Accelerator loaded(pp);
    std::istringstream iss(oss.str());
    ASSERT_TRUE(loaded.loadState(iss));

    // The loaded accelerator predicts immediately.
    EXPECT_EQ(loaded.chooseLevel(ServiceType::SysRead),
              DetailLevel::Emulate);
    ServiceController::IntervalOutcome q;
    q.type = ServiceType::SysRead;
    q.detailed = false;
    q.insts = 1005;
    auto pred = loaded.onServiceEnd(q);
    EXPECT_EQ(pred.cycles, 6000u);
    EXPECT_EQ(pred.mem.l2Misses, 10u);
    // Untrained services still learn normally.
    EXPECT_EQ(loaded.chooseLevel(ServiceType::SysWrite),
              DetailLevel::OooCache);
}

TEST(ProfileSerialization, RejectsGarbage)
{
    Accelerator accel;
    std::istringstream bad("not-a-profile v9");
    EXPECT_FALSE(accel.loadState(bad));
    std::istringstream truncated(
        "ospredict-profile v1\nservice 0 1\n1 2 3\n");
    EXPECT_FALSE(accel.loadState(truncated));
    std::istringstream noend("ospredict-profile v1\n");
    EXPECT_FALSE(accel.loadState(noend));
}

// A corrupt row count must fail the load, not size an allocation.
TEST(ProfileSerialization, HugeRowCountFailsClosed)
{
    Accelerator accel;
    std::istringstream huge("ospredict-profile v1\n"
                            "service 0 4611686018427387903\n"
                            "1 1000 0 5000 0 0.2 0 0 0 0 0 0\n");
    EXPECT_FALSE(accel.loadState(huge));
    EXPECT_EQ(accel.chooseLevel(static_cast<ServiceType>(0)),
              DetailLevel::OooCache);
}

// A stream that fails after a good service block loads nothing: the
// caller falls back to learning online, so no table may be half in.
TEST(ProfileSerialization, FailedLoadLeavesAcceleratorUnchanged)
{
    Accelerator accel;
    std::istringstream partial("ospredict-profile v1\n"
                               "service 0 1\n"
                               "1 1000 0 5000 0 0.2 0 0 0 0 0 0\n"
                               "service 1 1\n"
                               "1 2\n");
    EXPECT_FALSE(accel.loadState(partial));
    EXPECT_EQ(accel.chooseLevel(static_cast<ServiceType>(0)),
              DetailLevel::OooCache);
    EXPECT_EQ(accel.aggregateStats().predictedRuns, 0u);

    // The same good block, properly ended, does load.
    Accelerator ok;
    std::istringstream whole("ospredict-profile v1\n"
                             "service 0 1\n"
                             "1 1000 0 5000 0 0.2 0 0 0 0 0 0\n"
                             "end\n");
    EXPECT_TRUE(ok.loadState(whole));
    EXPECT_EQ(ok.chooseLevel(static_cast<ServiceType>(0)),
              DetailLevel::Emulate);
}

TEST(AuditSampling, SchedulesEveryNth)
{
    PredictorParams pp;
    pp.warmupInvocations = 0;
    pp.learningWindow = 1;
    pp.auditEvery = 5;
    pp.auditWarmup = 0;  // cadence only; no re-warm runs
    ServicePredictor pred(pp);
    ServiceMetrics m = serviceMetrics(1000, 5000);
    pred.recordDetailed(m);
    int detailed = 0;
    for (int i = 0; i < 25; ++i)
        detailed += pred.decideDetail();
    EXPECT_EQ(detailed, 5);
}

TEST(AuditSampling, WarmupBurstPrecedesAudit)
{
    PredictorParams pp;
    pp.warmupInvocations = 0;
    pp.learningWindow = 1;
    pp.auditEvery = 3;
    pp.auditWarmup = 2;
    ServicePredictor pred(pp);
    ServiceMetrics m = serviceMetrics(1000, 5000);
    pred.recordDetailed(m);
    ASSERT_FALSE(wantsDetail(pred));
    // Every 3rd prediction expands to a 3-run detailed burst: two
    // discarded re-warm runs, then the audited one.
    int audits_seen = 0;
    for (int i = 0; i < 30; ++i) {
        if (pred.decideDetail()) {
            pred.recordDetailed(m);
        } else {
            pred.predict(1000, i);
        }
        if (pred.stats().audits >
            static_cast<std::uint64_t>(audits_seen)) {
            audits_seen = static_cast<int>(pred.stats().audits);
            // Each audit was preceded by exactly auditWarmup
            // discarded runs.
            EXPECT_EQ(pred.stats().auditWarmupRuns,
                      pred.stats().audits * pp.auditWarmup);
        }
    }
    EXPECT_GE(pred.stats().audits, 2u);
    // Warm-up runs are discarded: not learned, not audited. The
    // only learned run is the initial window; a passing audit is
    // recorded but counts as an audit.
    EXPECT_EQ(pred.stats().learnedRuns, 1u);
    EXPECT_EQ(pred.stats().auditFailures, 0u);
}

TEST(AuditSampling, DriftTriggersRelearning)
{
    PredictorParams pp;
    pp.warmupInvocations = 0;
    pp.learningWindow = 4;
    pp.auditEvery = 2;
    pp.auditTriggerCount = 2;
    pp.stabilityWindow = 0;
    ServicePredictor pred(pp);
    // Learn a stable behaviour point around 5000 cycles.
    for (int i = 0; i < 4; ++i) {
        pred.recordDetailed(serviceMetrics(1000, 5000));
    }
    EXPECT_FALSE(wantsDetail(pred));
    // Now the same signature costs 3x: audits must catch it.
    std::uint64_t inv = 4;
    for (int i = 0; i < 20 && !wantsDetail(pred); ++i) {
        if (pred.decideDetail()) {
            pred.recordDetailed(serviceMetrics(1000, 15000));
        } else {
            pred.predict(1000, inv);
        }
        ++inv;
    }
    EXPECT_GE(pred.stats().audits, 2u);
    EXPECT_GE(pred.stats().auditFailures, 2u);
    EXPECT_EQ(pred.stats().driftResets, 1u);
    // The audit that triggered the reset seeds the new window but
    // counts as an audit, not as learning.
    EXPECT_EQ(pred.stats().learnedRuns, 4u);
    EXPECT_TRUE(wantsDetail(pred));  // back in a learning window
}

TEST(AuditSampling, StationaryNoiseDoesNotTrigger)
{
    PredictorParams pp;
    pp.warmupInvocations = 0;
    pp.learningWindow = 20;
    pp.auditEvery = 2;
    pp.stabilityWindow = 0;
    // This test exercises the 3-sigma audit gate alone; the
    // statistical trigger would alias with the deliberately
    // period-2 cycle pattern (audits phase-lock to one parity and
    // read a stable bias that is not there).
    pp.auditCiMinSamples = 0;
    ServicePredictor pred(pp);
    // Noisy but stationary: cycles alternate widely.
    for (int i = 0; i < 20; ++i) {
        pred.recordDetailed(
            serviceMetrics(1000, i % 2 ? 4000 : 6000));
    }
    std::uint64_t inv = 20;
    for (int i = 0; i < 40; ++i) {
        if (pred.decideDetail()) {
            pred.recordDetailed(
            serviceMetrics(1000, i % 2 ? 4000 : 6000));
        } else {
            pred.predict(1000, inv);
        }
        ++inv;
    }
    // 3-sigma gating absorbs the noise.
    EXPECT_EQ(pred.stats().driftResets, 0u);
}

TEST(AuditSampling, SustainedBiasTriggersStatisticalReset)
{
    PredictorParams pp;
    pp.warmupInvocations = 0;
    pp.learningWindow = 100;
    pp.auditEvery = 2;
    pp.auditWarmup = 0;
    pp.auditTriggerCount = 1000;  // keep the consecutive trigger out
    pp.auditCiMinSamples = 8;
    pp.stabilityWindow = 0;
    ServicePredictor pred(pp);
    // A heavy cluster: 100 members at 5000 cycles. Passing audits
    // fold into it, but 100 stale members pin the mean.
    for (int i = 0; i < 100; ++i) {
        pred.recordDetailed(serviceMetrics(1000, 5000));
    }
    EXPECT_FALSE(wantsDetail(pred));
    // Behaviour shifts to 5900 cycles (~15% off): inside the 30%
    // per-audit tolerance, so every individual audit passes — only
    // the CI on the accumulated mean error can prove the bias.
    std::uint64_t inv = 100;
    for (int i = 0; i < 100 && !wantsDetail(pred); ++i) {
        if (pred.decideDetail()) {
            pred.recordDetailed(serviceMetrics(1000, 5900));
        } else {
            pred.predict(1000, inv);
        }
        ++inv;
    }
    EXPECT_EQ(pred.stats().auditFailures, 0u);
    EXPECT_EQ(pred.stats().driftResets, 1u);
    EXPECT_TRUE(wantsDetail(pred));  // back in a learning window
}

TEST(AuditSampling, StatisticalTriggerCanBeDisabled)
{
    PredictorParams pp;
    pp.warmupInvocations = 0;
    pp.learningWindow = 100;
    pp.auditEvery = 2;
    pp.auditWarmup = 0;
    pp.auditTriggerCount = 1000;
    pp.auditCiMinSamples = 0;  // statistical trigger off
    pp.stabilityWindow = 0;
    ServicePredictor pred(pp);
    for (int i = 0; i < 100; ++i) {
        pred.recordDetailed(serviceMetrics(1000, 5000));
    }
    std::uint64_t inv = 100;
    for (int i = 0; i < 100 && !wantsDetail(pred); ++i) {
        if (pred.decideDetail()) {
            pred.recordDetailed(serviceMetrics(1000, 5900));
        } else {
            pred.predict(1000, inv);
        }
        ++inv;
    }
    EXPECT_EQ(pred.stats().driftResets, 0u);
    EXPECT_FALSE(wantsDetail(pred));
}

TEST(AdaptiveWarmup, ExtendsWhileCpiDrifts)
{
    PredictorParams pp;
    pp.warmupInvocations = 10;
    pp.stabilityWindow = 5;
    pp.stabilityTolerance = 0.02;
    pp.maxWarmupInvocations = 200;
    pp.learningWindow = 5;
    ServicePredictor pred(pp);
    // Strongly cooling CPI: warm-up must extend past the minimum.
    std::uint64_t runs = 0;
    while (wantsDetail(pred) && runs < 300) {
        Cycles cycles = 20000 - 90 * std::min<std::uint64_t>(
                                         runs, 200);
        pred.recordDetailed(serviceMetrics(1000, cycles));
        ++runs;
    }
    // warm-up extended beyond the 10-minimum (plus 5 learning).
    EXPECT_GT(pred.stats().warmupRuns, 20u);
    EXPECT_LE(pred.stats().warmupRuns, 200u);
}

TEST(AdaptiveWarmup, StableCpiEndsAtMinimum)
{
    PredictorParams pp;
    pp.warmupInvocations = 12;
    pp.stabilityWindow = 5;
    pp.stabilityTolerance = 0.02;
    pp.learningWindow = 5;
    ServicePredictor pred(pp);
    std::uint64_t runs = 0;
    while (wantsDetail(pred) && runs < 100) {
        pred.recordDetailed(serviceMetrics(1000, 5000));
        ++runs;
    }
    EXPECT_EQ(pred.stats().warmupRuns, 12u);
}

} // namespace
} // namespace osp
