/** @file Tests for the gshare branch predictor. */

#include <gtest/gtest.h>

#include "sim/branch_predictor.hh"
#include "util/random.hh"

namespace osp
{
namespace
{

TEST(GshareBp, LearnsAlwaysTaken)
{
    GshareBp bp(12);
    std::uint64_t misses = 0;
    for (int i = 0; i < 1000; ++i)
        misses += !bp.predictAndUpdate(0x400000, true);
    // After warm-up the biased branch is predicted near-perfectly.
    EXPECT_LT(misses / 1000.0, 0.02);
}

TEST(GshareBp, LearnsAlternatingViaHistory)
{
    GshareBp bp(12);
    for (int i = 0; i < 4000; ++i)
        bp.predictAndUpdate(0x400000, i % 2 == 0);
    // Global history disambiguates a strict alternation.
    GshareBp fresh(12);
    std::uint64_t late_misses = 0;
    for (int i = 0; i < 4000; ++i) {
        bool correct = fresh.predictAndUpdate(0x400000, i % 2 == 0);
        if (i >= 2000 && !correct)
            ++late_misses;
    }
    EXPECT_LT(late_misses / 2000.0, 0.05);
}

TEST(GshareBp, RandomBranchesNearFiftyPercent)
{
    GshareBp bp(12);
    Pcg32 rng(5);
    std::uint64_t misses = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        misses += !bp.predictAndUpdate(64 * rng.range(64),
                                       rng.chance(0.5));
    EXPECT_NEAR(misses / double(n), 0.5, 0.05);
}

TEST(GshareBp, BiasedBranchesBeatRandom)
{
    GshareBp bp(12);
    Pcg32 rng(7);
    const int n = 20000;
    std::uint64_t misses = 0;
    for (int i = 0; i < n; ++i)
        misses += !bp.predictAndUpdate(64 * rng.range(16),
                                       rng.chance(0.95));
    EXPECT_LT(misses / double(n), 0.15);
}

TEST(GshareBp, StartsWeaklyNotTaken)
{
    GshareBp not_taken(10);
    EXPECT_TRUE(not_taken.predictAndUpdate(0x100, false));
    GshareBp taken(10);
    EXPECT_FALSE(taken.predictAndUpdate(0x100, true));
}

TEST(GshareBp, InvalidHistoryBitsDie)
{
    EXPECT_DEATH(GshareBp(0), "history");
    EXPECT_DEATH(GshareBp(30), "history");
}

} // namespace
} // namespace osp
