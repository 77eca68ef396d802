/** @file Unit tests for the Welford accumulator. */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/running_stats.hh"
#include "util/random.hh"

namespace osp
{
namespace
{

TEST(RunningStats, EmptyIsNeutral)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.cv(), 0.0);
}

TEST(RunningStats, SingleSample)
{
    RunningStats s;
    s.add(42.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 42.0);
    EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStats, MatchesNaiveComputation)
{
    std::vector<double> xs = {1.5, 2.25, -3.0, 8.0, 0.0, 4.5, 4.5};
    RunningStats s;
    double sum = 0.0;
    for (double x : xs) {
        s.add(x);
        sum += x;
    }
    double mean = sum / xs.size();
    double var = 0.0;
    for (double x : xs)
        var += (x - mean) * (x - mean);
    var /= xs.size();

    EXPECT_NEAR(s.mean(), mean, 1e-12);
    EXPECT_NEAR(s.variance(), var, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
}

TEST(RunningStats, SampleVarianceUsesNMinusOne)
{
    RunningStats s;
    s.add(1.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 1.0);        // population
    EXPECT_DOUBLE_EQ(s.sampleVariance(), 2.0);  // n-1
}

TEST(RunningStats, CvIsStddevOverMean)
{
    RunningStats s;
    s.add(10.0);
    s.add(20.0);
    // mean 15, population stddev 5 -> CV = 1/3
    EXPECT_NEAR(s.cv(), 5.0 / 15.0, 1e-12);
}

TEST(RunningStats, MinMaxTracked)
{
    RunningStats s;
    for (double x : {3.0, -7.0, 12.0, 0.5})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.min(), -7.0);
    EXPECT_DOUBLE_EQ(s.max(), 12.0);
}

TEST(RunningStats, MergeEqualsSequential)
{
    Pcg32 rng(99);
    RunningStats whole;
    RunningStats a;
    RunningStats b;
    for (int i = 0; i < 500; ++i) {
        double x = rng.uniform(-4.0, 14.0);
        whole.add(x);
        (i < 200 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty)
{
    RunningStats a;
    a.add(1.0);
    a.add(2.0);
    RunningStats empty;
    RunningStats copy = a;
    copy.merge(empty);
    EXPECT_EQ(copy.count(), 2u);
    EXPECT_DOUBLE_EQ(copy.mean(), 1.5);

    RunningStats other;
    other.merge(a);
    EXPECT_EQ(other.count(), 2u);
    EXPECT_DOUBLE_EQ(other.mean(), 1.5);
}

TEST(RunningStats, NumericallyStableForLargeOffsets)
{
    // Naive sum-of-squares catastrophically cancels here.
    RunningStats s;
    double base = 1e9;
    for (double d : {0.0, 1.0, 2.0, 3.0, 4.0})
        s.add(base + d);
    EXPECT_NEAR(s.mean(), base + 2.0, 1e-3);
    EXPECT_NEAR(s.variance(), 2.0, 1e-6);
}

TEST(RunningStats, ClampWeightPreservesMoments)
{
    RunningStats s;
    for (int i = 0; i < 1000; ++i)
        s.add(i % 2 ? 4.0 : 6.0);
    double mean = s.mean();
    double var = s.variance();
    s.clampWeight(10);
    EXPECT_EQ(s.count(), 10u);
    EXPECT_DOUBLE_EQ(s.mean(), mean);
    EXPECT_NEAR(s.variance(), var, 1e-9);
}

TEST(RunningStats, ClampWeightLetsNewSamplesMoveTheMean)
{
    RunningStats s;
    for (int i = 0; i < 1000; ++i)
        s.add(5.0);
    s.clampWeight(10);
    for (int i = 0; i < 10; ++i)
        s.add(6.0);
    // 10 stale vs 10 fresh members: the mean meets in the middle,
    // where without the clamp it would barely move (~5.01).
    EXPECT_NEAR(s.mean(), 5.5, 1e-9);
}

TEST(RunningStats, ClampWeightBelowCountIsANoOp)
{
    RunningStats s;
    s.add(1.0);
    s.add(3.0);
    s.clampWeight(10);
    EXPECT_EQ(s.count(), 2u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

} // namespace
} // namespace osp
