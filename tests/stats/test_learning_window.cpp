/** @file Tests for the learning-window size of Sec. 4.3 (Fig. 7). */

#include <gtest/gtest.h>

#include <cmath>

#include "stats/learning_window.hh"

namespace osp
{
namespace
{

/** Eq. 2: the probability that an event of per-trial probability
 *  @p p occurs at least once in @p n independent trials. */
double
probOccursAtLeastOnce(double p, std::uint64_t n)
{
    return 1.0 - std::pow(1.0 - p, static_cast<double>(n));
}

TEST(LearningWindow, PaperOperatingPoint95)
{
    // pmin = 3%, DoC = 95%: the paper rounds the answer to 100.
    std::uint64_t n = learningWindowSize(0.03, 0.95);
    EXPECT_EQ(n, 99u);
    EXPECT_GE(probOccursAtLeastOnce(0.03, n), 0.95);
    EXPECT_LT(probOccursAtLeastOnce(0.03, n - 1), 0.95);
}

TEST(LearningWindow, PaperOperatingPoint99)
{
    // "a little bit over 150" at 99% confidence.
    std::uint64_t n = learningWindowSize(0.03, 0.99);
    EXPECT_EQ(n, 152u);
    EXPECT_GE(probOccursAtLeastOnce(0.03, n), 0.99);
    EXPECT_LT(probOccursAtLeastOnce(0.03, n - 1), 0.99);
}

TEST(LearningWindow, MonotoneInPmin)
{
    // Rarer clusters need longer windows.
    std::uint64_t prev = ~0ULL;
    for (double p = 0.01; p <= 0.2; p += 0.01) {
        std::uint64_t n = learningWindowSize(p, 0.95);
        EXPECT_LE(n, prev);
        prev = n;
    }
}

TEST(LearningWindow, MonotoneInConfidence)
{
    EXPECT_LT(learningWindowSize(0.05, 0.90),
              learningWindowSize(0.05, 0.95));
    EXPECT_LT(learningWindowSize(0.05, 0.95),
              learningWindowSize(0.05, 0.99));
}

TEST(LearningWindow, InvalidArgumentsDie)
{
    EXPECT_DEATH(learningWindowSize(0.0, 0.95), "p_min");
    EXPECT_DEATH(learningWindowSize(1.0, 0.95), "p_min");
    EXPECT_DEATH(learningWindowSize(0.03, 0.0), "doc");
    EXPECT_DEATH(learningWindowSize(0.03, 1.0), "doc");
}

/** Fig. 7 property: the curve the paper plots. */
class LearningWindowCurve
    : public ::testing::TestWithParam<double>
{
};

TEST_P(LearningWindowCurve, WindowSatisfiesConfidence)
{
    double pmin = GetParam();
    for (double doc : {0.95, 0.99}) {
        std::uint64_t n = learningWindowSize(pmin, doc);
        EXPECT_GE(probOccursAtLeastOnce(pmin, n), doc);
        if (n > 1) {
            EXPECT_LT(probOccursAtLeastOnce(pmin, n - 1), doc);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Fig7Sweep, LearningWindowCurve,
                         ::testing::Values(0.005, 0.01, 0.02, 0.03,
                                           0.05, 0.08, 0.1, 0.15,
                                           0.2));

} // namespace
} // namespace osp
