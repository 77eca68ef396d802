/** @file Tests for the per-service predictor state machine, and the
 *  predictor-state regressions around it: restoreTable leaking
 *  audit state, and cluster attribution surviving cluster-vector
 *  reallocation. */

#include <gtest/gtest.h>

#include "core/service_predictor.hh"

namespace osp
{
namespace
{

ServiceMetrics
metrics(InstCount insts, Cycles cycles)
{
    ServiceMetrics m;
    m.insts = insts;
    m.cycles = cycles;
    m.mem.l2Misses = insts / 100;
    return m;
}

/** A sample with every memory-hierarchy counter set. */
ServiceMetrics
memMetrics(InstCount insts, Cycles cycles)
{
    ServiceMetrics m;
    m.insts = insts;
    m.cycles = cycles;
    m.mem.l1iAccesses = insts;
    m.mem.l1iMisses = insts / 50;
    m.mem.l1dAccesses = insts / 3;
    m.mem.l1dMisses = insts / 60;
    m.mem.l2Accesses = insts / 40;
    m.mem.l2Misses = insts / 100;
    return m;
}

PredictorParams
testParams(std::uint64_t warm = 2, std::uint64_t window = 5)
{
    PredictorParams p;
    p.warmupInvocations = warm;
    p.learningWindow = window;
    return p;
}

TEST(ServicePredictor, DefaultWindowFromBinomialAnalysis)
{
    PredictorParams p;
    p.learningWindow = 0;
    p.pMin = 0.03;
    p.doc = 0.95;
    ServicePredictor pred(p);
    EXPECT_EQ(pred.learningWindow(), 99u);
}

TEST(ServicePredictor, LifecyclePhases)
{
    ServicePredictor pred(testParams(2, 3));
    // Warm-up: wants detail, records nothing.
    EXPECT_TRUE(pred.wantsDetail());
    pred.recordDetailed(metrics(1000, 5000));
    pred.recordDetailed(metrics(1000, 5000));
    EXPECT_EQ(pred.table().numClusters(), 0u);
    EXPECT_EQ(pred.stats().warmupRuns, 2u);

    // Learning: records into the PLT.
    EXPECT_TRUE(pred.wantsDetail());
    pred.recordDetailed(metrics(1000, 5000));
    pred.recordDetailed(metrics(1010, 5100));
    pred.recordDetailed(metrics(4000, 20000));
    EXPECT_EQ(pred.table().numClusters(), 2u);
    EXPECT_EQ(pred.stats().learnedRuns, 3u);

    // Window exhausted: predicting.
    EXPECT_FALSE(pred.wantsDetail());
}

TEST(ServicePredictor, ZeroWarmupStartsLearning)
{
    ServicePredictor pred(testParams(0, 2));
    pred.recordDetailed(metrics(1000, 5000));
    EXPECT_EQ(pred.table().numClusters(), 1u);
}

TEST(ServicePredictor, PredictsFromMatchingCluster)
{
    ServicePredictor pred(testParams(0, 2));
    pred.recordDetailed(metrics(1000, 5000));
    pred.recordDetailed(metrics(1000, 7000));
    bool outlier = true;
    ServiceMetrics p = pred.predict(1005, 2, &outlier);
    EXPECT_FALSE(outlier);
    EXPECT_EQ(p.cycles, 6000u);
    EXPECT_EQ(p.insts, 1005u);  // reports the actual signature
    EXPECT_EQ(pred.stats().predictedRuns, 1u);
}

TEST(ServicePredictor, OutlierUsesClosestCluster)
{
    ServicePredictor pred(testParams(0, 2));
    pred.recordDetailed(metrics(1000, 5000));
    pred.recordDetailed(metrics(8000, 40000));
    bool outlier = false;
    ServiceMetrics p = pred.predict(7000, 2, &outlier);
    EXPECT_TRUE(outlier);
    EXPECT_EQ(p.cycles, 40000u);
    EXPECT_EQ(pred.stats().outliers, 1u);
}

TEST(ServicePredictor, EagerOutlierForcesRelearning)
{
    PredictorParams params = testParams(0, 2);
    params.relearn.strategy = RelearnStrategy::Eager;
    ServicePredictor pred(params);
    pred.recordDetailed(metrics(1000, 5000));
    pred.recordDetailed(metrics(1000, 5000));
    EXPECT_FALSE(pred.wantsDetail());
    pred.predict(9000, 2);
    // Back to learning for a fresh window.
    EXPECT_TRUE(pred.wantsDetail());
    EXPECT_EQ(pred.stats().relearnEvents, 1u);
    EXPECT_EQ(pred.table().numOutlierEntries(), 0u);
    // The new cluster gets captured this time.
    pred.recordDetailed(metrics(9000, 90000));
    pred.recordDetailed(metrics(9000, 90000));
    EXPECT_FALSE(pred.wantsDetail());
    bool outlier = true;
    ServiceMetrics p = pred.predict(9000, 5, &outlier);
    EXPECT_FALSE(outlier);
    EXPECT_EQ(p.cycles, 90000u);
}

TEST(ServicePredictor, BestMatchNeverRelearns)
{
    PredictorParams params = testParams(0, 1);
    params.relearn.strategy = RelearnStrategy::BestMatch;
    ServicePredictor pred(params);
    pred.recordDetailed(metrics(1000, 5000));
    for (std::uint64_t i = 1; i <= 500; ++i) {
        pred.predict(100000, i);
        EXPECT_FALSE(pred.wantsDetail());
    }
    EXPECT_EQ(pred.stats().relearnEvents, 0u);
    EXPECT_EQ(pred.stats().outliers, 500u);
}

TEST(ServicePredictor, EmptyTablePredictsZero)
{
    // Degenerate but must not crash: prediction before learning.
    ServicePredictor pred(testParams(0, 5));
    ServiceMetrics p = pred.predict(1234, 0);
    EXPECT_EQ(p.cycles, 0u);
    EXPECT_EQ(p.insts, 1234u);
}

TEST(ServicePredictor, DetailedWhilePredictingStillLearns)
{
    ServicePredictor pred(testParams(0, 1));
    pred.recordDetailed(metrics(1000, 5000));
    EXPECT_FALSE(pred.wantsDetail());
    // A forced detailed run while predicting updates the PLT.
    pred.recordDetailed(metrics(3000, 9000));
    EXPECT_EQ(pred.table().numClusters(), 2u);
    EXPECT_FALSE(pred.wantsDetail());
}

TEST(ServicePredictorAudit, AuditEveryOneAuditsEachPrediction)
{
    PredictorParams p = testParams(0, 1);
    p.auditEvery = 1;
    p.auditWarmup = 0;
    ServicePredictor pred(p);
    pred.recordDetailed(metrics(1000, 5000));
    ASSERT_FALSE(pred.wantsDetail());
    // Every decision is an audit: the service never emulates.
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(pred.decideDetail());
        pred.recordDetailed(metrics(1000, 5000));
    }
    EXPECT_EQ(pred.stats().audits, 6u);
    EXPECT_EQ(pred.stats().auditFailures, 0u);
    EXPECT_EQ(pred.stats().predictedRuns, 0u);
}

TEST(ServicePredictorAudit, AuditEveryOneWithWarmupAlternates)
{
    PredictorParams p = testParams(0, 1);
    p.auditEvery = 1;
    p.auditWarmup = 1;
    ServicePredictor pred(p);
    pred.recordDetailed(metrics(1000, 5000));
    // Bursts of warm + audit back to back.
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(pred.decideDetail());
        pred.recordDetailed(metrics(1000, 5000));
    }
    EXPECT_EQ(pred.stats().audits, 3u);
    EXPECT_EQ(pred.stats().auditWarmupRuns, 3u);
}

TEST(ServicePredictorAudit, PendingAuditDroppedOnRelearnEntry)
{
    // An audit decision taken while predicting must not audit a
    // learning-window sample if a relearn fires in between.
    PredictorParams p = testParams(0, 2);
    p.auditEvery = 1;
    p.auditWarmup = 0;
    p.relearn.strategy = RelearnStrategy::Eager;
    ServicePredictor pred(p);
    pred.recordDetailed(metrics(1000, 5000));
    pred.recordDetailed(metrics(1000, 5000));
    ASSERT_FALSE(pred.wantsDetail());
    ASSERT_TRUE(pred.decideDetail());  // audit now pending
    // Outlier prediction forces an eager relearn before the
    // detailed outcome comes back.
    pred.predict(9000, 2);
    ASSERT_TRUE(pred.wantsDetail());
    pred.recordDetailed(metrics(9000, 90000));
    // The sample joined the learning window instead of auditing.
    EXPECT_EQ(pred.stats().audits, 0u);
    EXPECT_EQ(pred.stats().learnedRuns, 3u);
    // The schedule resumes cleanly once predicting again.
    pred.recordDetailed(metrics(9000, 90000));
    ASSERT_FALSE(pred.wantsDetail());
    ASSERT_TRUE(pred.decideDetail());
    pred.recordDetailed(metrics(9000, 90000));
    EXPECT_EQ(pred.stats().audits, 1u);
}

TEST(ServicePredictorAudit, TriggerCountInvalidatesAndRelearns)
{
    PredictorParams p = testParams(0, 2);
    p.auditEvery = 1;
    p.auditWarmup = 0;
    p.auditTriggerCount = 2;
    ServicePredictor pred(p);
    pred.recordDetailed(metrics(1000, 5000));
    pred.recordDetailed(metrics(1000, 5000));
    ASSERT_FALSE(pred.wantsDetail());

    // Behaviour jumps 4x: two consecutive audit failures force a
    // re-learning window without clearing the table.
    ASSERT_TRUE(pred.decideDetail());
    pred.recordDetailed(metrics(1000, 20000));
    EXPECT_EQ(pred.stats().auditFailures, 1u);
    EXPECT_FALSE(pred.wantsDetail());  // one strike is noise
    ASSERT_TRUE(pred.decideDetail());
    pred.recordDetailed(metrics(1000, 20000));
    EXPECT_EQ(pred.stats().auditFailures, 2u);
    EXPECT_EQ(pred.stats().driftResets, 1u);
    EXPECT_TRUE(pred.wantsDetail());  // back in a learning window

    // The drift sample plus one more complete the fresh window and
    // pull the surviving cluster's mean toward current behaviour.
    pred.recordDetailed(metrics(1000, 20000));
    EXPECT_FALSE(pred.wantsDetail());
    ServiceMetrics after = pred.predict(1000, 6);
    EXPECT_EQ(after.cycles, (5000u + 5000 + 20000 + 20000) / 4);
}

TEST(ServicePredictorAudit, RoutesAuditsIntoAccuracyLedger)
{
    obs::Telemetry tel;
    PredictorParams p = testParams(0, 1);
    p.auditEvery = 1;
    p.auditWarmup = 0;
    ServicePredictor pred(p);
    pred.attachTelemetry(&tel, "predictor.test", 7);
    pred.recordDetailed(metrics(1000, 5000));

    bool outlier = true;
    ServiceMetrics pr = pred.predict(1000, 1, &outlier);
    EXPECT_FALSE(outlier);
    EXPECT_EQ(pred.lastMatchedCluster(), 0u);
    ASSERT_TRUE(pred.decideDetail());
    pred.recordDetailed(metrics(1000, 6000));  // passes (noise)

    obs::AccuracySnapshot snap = tel.accuracy.snapshot();
    ASSERT_EQ(snap.entries.size(), 1u);
    const obs::AccuracyEntry &e = snap.entries[0];
    EXPECT_EQ(e.service, 7);
    EXPECT_EQ(e.cluster, 0u);
    EXPECT_EQ(e.predictions, 1u);
    EXPECT_EQ(e.predictedCycles, pr.cycles);
    EXPECT_EQ(e.audits, 1u);
    ASSERT_EQ(e.errCount, 1u);
    // predicted 5000 vs measured 6000.
    EXPECT_NEAR(e.errMean, (5000.0 - 6000.0) / 6000.0, 1e-12);

    // Satellite: the per-service audit counters surface in
    // metrics snapshots, not just the aggregate stats.
    obs::MetricsSnapshot ms = tel.registry.snapshot();
    EXPECT_EQ(ms.counterValue("predictor.test", "audits"), 1u);
    EXPECT_EQ(ms.counterValue("predictor.test", "audit_failures"),
              0u);
    EXPECT_EQ(ms.counterValue("predictor.test", "drift_resets"),
              0u);
}

TEST(ServicePredictorAudit, NoClusterAuditSkipsLedger)
{
    // predict() before any learning books under the no-cluster
    // sentinel and the audit (no cluster to compare) records the
    // failure without an error sample.
    obs::Telemetry tel;
    PredictorParams p = testParams(0, 1);
    ServicePredictor pred(p);
    pred.attachTelemetry(&tel, "predictor.test", 3);
    pred.predict(1234, 0);
    obs::AccuracySnapshot snap = tel.accuracy.snapshot();
    ASSERT_EQ(snap.entries.size(), 1u);
    EXPECT_EQ(snap.entries[0].cluster, obs::accuracyNoCluster);
    EXPECT_EQ(snap.entries[0].predictions, 1u);
    EXPECT_EQ(snap.entries[0].audits, 0u);
}

TEST(ServicePredictorAudit, WarmRunsDoNotPerturbClusters)
{
    PredictorParams p = testParams(0, 1);
    p.auditEvery = 2;
    p.auditWarmup = 1;
    ServicePredictor pred(p);
    pred.recordDetailed(metrics(1000, 5000));
    std::uint64_t inv = 1;
    // Drive far enough for two full audit bursts; warm runs carry
    // wildly wrong cycles which must never reach the PLT.
    for (int i = 0; i < 12; ++i) {
        if (pred.decideDetail()) {
            bool warm = pred.stats().audits ==
                        pred.stats().auditWarmupRuns;
            pred.recordDetailed(
                metrics(1000, warm ? 900000 : 5000));
        } else {
            pred.predict(1000, inv);
        }
        ++inv;
    }
    EXPECT_GE(pred.stats().auditWarmupRuns, 2u);
    EXPECT_EQ(pred.stats().auditFailures, 0u);
    ASSERT_EQ(pred.table().numClusters(), 1u);
    ServiceMetrics pr = pred.predict(1000, inv);
    EXPECT_EQ(pr.cycles, 5000u);
}

TEST(ServicePredictor, CoverageReflectsWindowAndTraffic)
{
    // 2 warmup + 5 learning out of 100 invocations -> 93%.
    ServicePredictor pred(testParams(2, 5));
    std::uint64_t detailed = 0;
    for (std::uint64_t i = 0; i < 100; ++i) {
        if (pred.wantsDetail()) {
            ++detailed;
            pred.recordDetailed(metrics(1000, 5000));
        } else {
            pred.predict(1000, i);
        }
    }
    EXPECT_EQ(detailed, 7u);
}

// Regression: restoreTable() used to reset the mode and phase but
// leak the audit machinery — a pending audit decision, an
// in-flight re-warm burst, the consecutive-failure streak and the
// per-cluster CI accumulators all survived into the restored table's
// new index epoch.
TEST(ServicePredictorRestore, ClearsPendingAuditAndFailureStreak)
{
    PredictorParams p;
    p.warmupInvocations = 0;
    p.learningWindow = 1;
    p.auditEvery = 1;
    p.auditWarmup = 0;
    p.auditTriggerCount = 2;
    ServicePredictor pred(p);
    pred.recordDetailed(memMetrics(1000, 5000));
    ASSERT_FALSE(pred.wantsDetail());

    // One audit failure: streak at 1 of the 2 needed for a reset.
    ASSERT_TRUE(pred.decideDetail());
    pred.recordDetailed(memMetrics(1000, 20000));
    EXPECT_EQ(pred.stats().auditFailures, 1u);
    EXPECT_EQ(pred.stats().driftResets, 0u);

    // Second audit now pending...
    ASSERT_TRUE(pred.decideDetail());
    // ...when a warm start replaces the table.
    pred.restoreTable(pred.snapshotTable());

    // The next detailed sample must be an ordinary learning
    // sample, not the leaked audit — and must not complete the
    // leaked failure streak into a drift reset.
    pred.recordDetailed(memMetrics(1000, 20000));
    EXPECT_EQ(pred.stats().audits, 1u);
    EXPECT_EQ(pred.stats().auditFailures, 1u);
    EXPECT_EQ(pred.stats().driftResets, 0u);

    // The streak itself was cleared: one fresh failure is still
    // one strike short of a reset.
    ASSERT_TRUE(pred.decideDetail());
    pred.recordDetailed(memMetrics(1000, 90000));
    EXPECT_EQ(pred.stats().auditFailures, 2u);
    EXPECT_EQ(pred.stats().driftResets, 0u);
}

TEST(ServicePredictorRestore, ResetsAuditSchedule)
{
    PredictorParams p;
    p.warmupInvocations = 0;
    p.learningWindow = 1;
    p.auditEvery = 2;
    p.auditWarmup = 0;
    ServicePredictor pred(p);
    pred.recordDetailed(memMetrics(1000, 5000));
    ASSERT_FALSE(pred.wantsDetail());

    // Half the audit period elapses...
    ASSERT_FALSE(pred.decideDetail());
    // ...then the table is replaced. The schedule must restart:
    // the restored table gets a full period before its first
    // audit, rather than inheriting the old countdown.
    pred.restoreTable(pred.snapshotTable());
    EXPECT_FALSE(pred.decideDetail());
    EXPECT_TRUE(pred.decideDetail());
}

// Regression: the audited cluster's index used to be derived by
// pointer arithmetic against the cluster vector's base, computed
// *after* operations that can reallocate it. The index is now
// resolved inside the lookup itself, so attribution survives
// arbitrary table growth between learning and auditing.
TEST(ServicePredictorLedger, AuditAttributionSurvivesTableGrowth)
{
    obs::Telemetry tel;
    PredictorParams p;
    p.warmupInvocations = 0;
    p.learningWindow = 1;
    p.auditEvery = 1;
    p.auditWarmup = 0;
    ServicePredictor pred(p);
    pred.attachTelemetry(&tel, "predictor.test", 1);
    pred.recordDetailed(memMetrics(1000, 5000));  // cluster 0
    ASSERT_FALSE(pred.wantsDetail());

    // Grow the table by dozens of distinct clusters (forced
    // detailed runs while predicting), reallocating the vector
    // several times over.
    double insts = 4000.0;
    for (int i = 0; i < 64; ++i) {
        auto n = static_cast<InstCount>(insts);
        pred.recordDetailed(memMetrics(n, 5 * n));
        insts *= 1.2;
    }
    ASSERT_EQ(pred.table().numClusters(), 65u);

    // Audit the original cluster: the ledger must book it under
    // cluster 0, the index resolved at lookup time.
    ASSERT_TRUE(pred.decideDetail());
    pred.recordDetailed(memMetrics(1000, 5000));
    obs::AccuracySnapshot snap = tel.accuracy.snapshot();
    bool found = false;
    for (const obs::AccuracyEntry &e : snap.entries) {
        if (e.audits == 0)
            continue;
        EXPECT_EQ(e.cluster, 0u);
        EXPECT_EQ(e.auditFailures, 0u);
        found = true;
    }
    EXPECT_TRUE(found);
}

} // namespace
} // namespace osp
