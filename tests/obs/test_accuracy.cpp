/** @file Tests for the accuracy ledger: error accumulation,
 *  Student-t confidence intervals, drift detection, snapshot
 *  determinism, and the error-budget rollup. */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "obs/accuracy.hh"
#include "stats/student_t.hh"

namespace osp::obs
{
namespace
{

AuditSample
cycleSample(double predicted, double actual, bool failed = false)
{
    AuditSample s;
    s.predictedCycles = predicted;
    s.actualCycles = actual;
    s.failed = failed;
    return s;
}

TEST(AccuracyCi95, MatchesHandComputedStudentT)
{
    // Two samples +-0.10: mean 0, sample stddev 0.1*sqrt(2),
    // ci = t(1, .025) * s / sqrt(2) = 12.706 * 0.1.
    RunningStats err;
    err.add(0.10);
    err.add(-0.10);
    EXPECT_NEAR(accuracyCi95(err),
                studentTCritical(1, 0.025) * 0.1, 1e-12);
    // Fewer than two samples: no interval.
    RunningStats one;
    one.add(0.10);
    EXPECT_EQ(accuracyCi95(one), 0.0);
    EXPECT_EQ(accuracyCi95(RunningStats{}), 0.0);
}

TEST(AccuracyLedger, AuditAccumulatesSignedRelativeErrors)
{
    AccuracyLedger ledger;
    // +10% then -10% cycle error.
    ledger.noteAudit(1, 0, cycleSample(110.0, 100.0));
    ledger.noteAudit(1, 0, cycleSample(90.0, 100.0, true));

    AccuracySnapshot snap = ledger.snapshot();
    ASSERT_EQ(snap.entries.size(), 1u);
    const AccuracyEntry &e = snap.entries[0];
    EXPECT_EQ(e.service, 1);
    EXPECT_EQ(e.cluster, 0u);
    EXPECT_EQ(e.audits, 2u);
    EXPECT_EQ(e.auditFailures, 1u);
    EXPECT_EQ(e.errCount, 2u);
    EXPECT_NEAR(e.errMean, 0.0, 1e-12);
    EXPECT_NEAR(e.errMin, -0.10, 1e-12);
    EXPECT_NEAR(e.errMax, 0.10, 1e-12);
    ASSERT_TRUE(e.hasCi);
    EXPECT_NEAR(e.ci95, studentTCritical(1, 0.025) * 0.1, 1e-12);
    // Mean CI straddles zero: no drift at any sane tolerance.
    EXPECT_FALSE(e.drift);

    // The moments round-trip through the serializable form.
    RunningStats back = e.errStats();
    EXPECT_EQ(back.count(), 2u);
    EXPECT_NEAR(back.sampleStddev(), 0.1 * std::sqrt(2.0), 1e-12);
}

TEST(AccuracyLedger, ZeroDenominatorsAreSkipped)
{
    AccuracyLedger ledger;
    AuditSample s = cycleSample(50.0, 0.0);
    s.predictedL2Misses = 5.0;
    s.actualL2Misses = 0.0;
    s.predictedIpc = 1.0;
    s.actualIpc = 0.0;
    ledger.noteAudit(0, 0, s);
    AccuracySnapshot snap = ledger.snapshot();
    ASSERT_EQ(snap.entries.size(), 1u);
    EXPECT_EQ(snap.entries[0].audits, 1u);
    EXPECT_EQ(snap.entries[0].errCount, 0u);
    EXPECT_EQ(snap.entries[0].missCount, 0u);
    EXPECT_EQ(snap.entries[0].ipcCount, 0u);
    EXPECT_FALSE(snap.entries[0].hasCi);
}

TEST(AccuracyLedger, DriftFlagsCiOutsideToleranceBand)
{
    AccuracyLedger ledger;
    ledger.setTolerance(0.05);
    // Consistent +50% error: CI [~0.38, ~0.64] excludes +-5%.
    ledger.noteAudit(2, 1, cycleSample(150.0, 100.0));
    ledger.noteAudit(2, 1, cycleSample(152.0, 100.0));
    // Noisy but centred cluster: no drift.
    ledger.noteAudit(2, 2, cycleSample(140.0, 100.0));
    ledger.noteAudit(2, 2, cycleSample(60.0, 100.0));

    AccuracySnapshot snap = ledger.snapshot();
    ASSERT_EQ(snap.entries.size(), 2u);
    EXPECT_TRUE(snap.entries[0].drift);
    EXPECT_FALSE(snap.entries[1].drift);

    // Symmetric: a confidently negative mean drifts too.
    AccuracyLedger low;
    low.setTolerance(0.05);
    low.noteAudit(0, 0, cycleSample(50.0, 100.0));
    low.noteAudit(0, 0, cycleSample(52.0, 100.0));
    EXPECT_TRUE(low.snapshot().entries[0].drift);
}

TEST(AccuracyLedger, SnapshotSortedByServiceThenCluster)
{
    AccuracyLedger ledger;
    ledger.notePrediction(3, 2, 10, false);
    ledger.notePrediction(1, 5, 10, false);
    ledger.notePrediction(1, 1, 10, true);
    ledger.notePrediction(3, 0, 10, false);
    ledger.notePrediction(2, accuracyNoCluster, 0, true);

    AccuracySnapshot snap = ledger.snapshot();
    ASSERT_EQ(snap.entries.size(), 5u);
    const char *expect[] = {"1/1", "1/5", "2/-", "3/0", "3/2"};
    for (std::size_t i = 0; i < 5; ++i) {
        std::string got =
            std::to_string(snap.entries[i].service) + "/" +
            (snap.entries[i].cluster == accuracyNoCluster
                 ? "-"
                 : std::to_string(snap.entries[i].cluster));
        EXPECT_EQ(got, expect[i]) << "entry " << i;
    }
    EXPECT_EQ(snap.entries[0].outlierPredictions, 1u);
}

TEST(AccuracyRollup, EstimateScalesByPredictedShare)
{
    AccuracyLedger ledger;
    // 600 of 1000 cycles predicted, all audits read +10% error.
    ledger.notePrediction(1, 0, 600, false);
    ledger.noteAudit(1, 0, cycleSample(110.0, 100.0));
    ledger.noteAudit(1, 0, cycleSample(110.0, 100.0));
    ledger.noteRunTotals(1000, 600);

    AccuracyRollup roll = rollupAccuracy(ledger.snapshot());
    EXPECT_EQ(roll.predictions, 1u);
    EXPECT_EQ(roll.audits, 2u);
    EXPECT_EQ(roll.predictedCycles, 600u);
    ASSERT_TRUE(roll.hasEstimate);
    EXPECT_NEAR(roll.estRelTotalErr, 0.10 * 0.6, 1e-12);
    // Zero dispersion: both CI terms vanish.
    ASSERT_TRUE(roll.hasCi);
    EXPECT_NEAR(roll.estCi95, 0.0, 1e-12);
}

TEST(AccuracyRollup, EstimateCiCoversUnauditedShare)
{
    AccuracyLedger ledger;
    ledger.notePrediction(1, 0, 500, false);
    ledger.noteAudit(1, 0, cycleSample(110.0, 100.0));
    ledger.noteAudit(1, 0, cycleSample(90.0, 100.0));
    ledger.noteRunTotals(1000, 500);

    AccuracyRollup roll = rollupAccuracy(ledger.snapshot());
    ASSERT_TRUE(roll.hasEstimate);
    // share * ci  +  (1 - share) * sample stddev
    double s = 0.1 * std::sqrt(2.0);
    double expected = 0.5 * accuracyCi95(roll.err) + 0.5 * s;
    EXPECT_NEAR(roll.estCi95, expected, 1e-12);
}

TEST(AccuracyRollup, UnauditedClustersAreUnattributed)
{
    AccuracyLedger ledger;
    ledger.notePrediction(1, 0, 600, false);
    ledger.notePrediction(2, 0, 400, false);
    ledger.noteAudit(1, 0, cycleSample(110.0, 100.0));

    AccuracyRollup roll = rollupAccuracy(ledger.snapshot());
    EXPECT_EQ(roll.predictedCycles, 1000u);
    EXPECT_EQ(roll.unattributedCycles, 400u);
    // No run totals noted: no end-to-end estimate.
    EXPECT_FALSE(roll.hasEstimate);
}

TEST(AccuracyRollup, MergesErrorStatsAcrossEntries)
{
    AccuracyLedger ledger;
    ledger.setTolerance(0.05);
    ledger.noteAudit(1, 0, cycleSample(150.0, 100.0));
    ledger.noteAudit(1, 0, cycleSample(152.0, 100.0));
    ledger.noteAudit(2, 0, cycleSample(148.0, 100.0));
    ledger.noteAudit(2, 0, cycleSample(150.0, 100.0));

    AccuracyRollup roll = rollupAccuracy(ledger.snapshot());
    EXPECT_EQ(roll.err.count(), 4u);
    EXPECT_NEAR(roll.err.mean(), 0.50, 1e-12);
    EXPECT_EQ(roll.driftingClusters, 2u);
}

TEST(AccuracyLedger, EmptyUntilFed)
{
    AccuracyLedger ledger;
    EXPECT_TRUE(ledger.snapshot().empty());
    ledger.noteRunTotals(100, 0);
    // Totals alone create no entries.
    EXPECT_TRUE(ledger.snapshot().empty());
    ledger.notePrediction(0, 0, 1, false);
    EXPECT_FALSE(ledger.snapshot().empty());
}

} // namespace
} // namespace osp::obs
