/** @file Tests for scaled clusters (Sec. 4.2). */

#include <gtest/gtest.h>

#include "core/scaled_cluster.hh"

namespace osp
{
namespace
{

/** The cluster's centroid: its distance from a zero signature. */
double
centroid(const ScaledCluster &c)
{
    return c.distance(0);
}

ServiceMetrics
metrics(InstCount insts, Cycles cycles, std::uint64_t l2miss = 10)
{
    ServiceMetrics m;
    m.insts = insts;
    m.cycles = cycles;
    m.mem.l1iAccesses = insts / 16;
    m.mem.l1iMisses = insts / 100;
    m.mem.l1dAccesses = insts / 3;
    m.mem.l1dMisses = insts / 50;
    m.mem.l2Accesses = insts / 40;
    m.mem.l2Misses = l2miss;
    return m;
}

TEST(ScaledCluster, RangeIsCentroidPlusMinusFivePercent)
{
    ScaledCluster c(metrics(1000, 5000), 0.05);
    EXPECT_DOUBLE_EQ(centroid(c), 1000.0);
    EXPECT_DOUBLE_EQ(c.rangeLo(), 950.0);
    EXPECT_DOUBLE_EQ(c.rangeHi(), 1050.0);
    EXPECT_TRUE(c.matches(950));
    EXPECT_TRUE(c.matches(1050));
    EXPECT_FALSE(c.matches(949));
    EXPECT_FALSE(c.matches(1051));
}

TEST(ScaledCluster, CentroidIsRunningMean)
{
    ScaledCluster c(metrics(1000, 5000));
    c.add(metrics(1040, 5200));
    EXPECT_DOUBLE_EQ(centroid(c), 1020.0);
    // Range scales with the centroid.
    EXPECT_DOUBLE_EQ(c.rangeHi(), 1020.0 * 1.05);
}

TEST(ScaledCluster, RangeScalesWithMagnitude)
{
    // The motivation for scaled (vs fixed) bins: absolute width
    // grows with instruction count.
    ScaledCluster small(metrics(100, 500));
    ScaledCluster large(metrics(100000, 500000));
    EXPECT_NEAR(small.rangeHi() - small.rangeLo(), 10.0, 1e-9);
    EXPECT_NEAR(large.rangeHi() - large.rangeLo(), 10000.0, 1e-6);
}

TEST(ScaledCluster, DistanceFromCentroid)
{
    ScaledCluster c(metrics(1000, 5000));
    EXPECT_DOUBLE_EQ(c.distance(900), 100.0);
    EXPECT_DOUBLE_EQ(c.distance(1100), 100.0);
}

TEST(ScaledCluster, PredictIsMemberMean)
{
    ScaledCluster c(metrics(1000, 5000, 20));
    c.add(metrics(1000, 7000, 40));
    ServiceMetrics p = c.predict();
    EXPECT_EQ(p.cycles, 6000u);
    EXPECT_EQ(p.mem.l2Misses, 30u);
    EXPECT_EQ(p.insts, 1000u);
}

TEST(ScaledCluster, StatsTrackMembers)
{
    ScaledCluster c(metrics(1000, 4000));
    c.add(metrics(1000, 6000));
    EXPECT_EQ(c.count(), 2u);
    EXPECT_DOUBLE_EQ(c.cyclesStats().mean(), 5000.0);
    EXPECT_GT(c.cyclesStats().cv(), 0.0);
    EXPECT_EQ(c.predict().insts, 1000u);
}

TEST(ScaledCluster, IpcStatsDerived)
{
    ScaledCluster c(metrics(1000, 5000));
    EXPECT_NEAR(c.ipcStats().mean(), 0.2, 1e-9);
}

TEST(ScaledCluster, InvalidRangeDies)
{
    EXPECT_DEATH(ScaledCluster(metrics(10, 10), 0.0), "range");
    EXPECT_DEATH(ScaledCluster(metrics(10, 10), 1.0), "range");
}

TEST(ScaledCluster, DecayHistoryPreservesPrediction)
{
    ScaledCluster c(metrics(1000, 5000));
    for (int i = 0; i < 999; ++i)
        c.add(metrics(1000, 5000));
    c.decayHistory(10);
    EXPECT_EQ(c.count(), 10u);
    EXPECT_EQ(c.predict().cycles, 5000u);
    EXPECT_DOUBLE_EQ(centroid(c), 1000.0);
}

TEST(ScaledCluster, DecayHistoryLetsRelearningMoveTheMean)
{
    ScaledCluster heavy(metrics(1000, 5000));
    ScaledCluster undecayed(metrics(1000, 5000));
    for (int i = 0; i < 999; ++i) {
        heavy.add(metrics(1000, 5000));
        undecayed.add(metrics(1000, 5000));
    }
    heavy.decayHistory(10);
    for (int i = 0; i < 10; ++i) {
        heavy.add(metrics(1000, 6000));
        undecayed.add(metrics(1000, 6000));
    }
    // 10 stale vs 10 fresh: the decayed cluster tracks the shift;
    // the undecayed one stays pinned by its 1000 stale members.
    EXPECT_EQ(heavy.predict().cycles, 5500u);
    EXPECT_LT(undecayed.predict().cycles, 5100u);
}

} // namespace
} // namespace osp
