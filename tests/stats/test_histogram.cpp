/** @file Tests for bubble histograms (Fig. 5 binning). */

#include <gtest/gtest.h>

#include "stats/histogram.hh"

namespace osp
{
namespace
{

TEST(BubbleHistogram, PaperBinning)
{
    // Fig. 5: 1000-instruction by 4000-cycle bins.
    BubbleHistogram b(1000.0, 4000.0);
    b.add(1500.0, 9000.0);   // bins (1, 2)
    b.add(1999.0, 11999.0);  // bins (1, 2)
    b.add(2000.0, 12000.0);  // bins (2, 3)
    EXPECT_EQ(b.numBubbles(), 2u);
    auto bubbles = b.bubbles();
    ASSERT_EQ(bubbles.size(), 2u);
    EXPECT_EQ(bubbles[0].xBin, 1);
    EXPECT_EQ(bubbles[0].yBin, 2);
    EXPECT_EQ(bubbles[0].count, 2u);
    EXPECT_DOUBLE_EQ(bubbles[0].xCenter, 1500.0);
    EXPECT_DOUBLE_EQ(bubbles[0].yCenter, 10000.0);
    EXPECT_EQ(bubbles[1].count, 1u);
}

TEST(BubbleHistogram, FewBubblesForClusteredInput)
{
    // The paper's key observation: repeated behaviour points produce
    // few, large bubbles.
    BubbleHistogram b(1000.0, 4000.0);
    for (int i = 0; i < 100; ++i) {
        b.add(2100.0 + i % 50, 8100.0 + i % 300);
        b.add(7300.0 + i % 50, 30000.0 + i % 300);
    }
    std::uint64_t total = 0;
    for (const auto &bubble : b.bubbles())
        total += bubble.count;
    EXPECT_EQ(total, 200u);
    EXPECT_LE(b.numBubbles(), 2u);
}

} // namespace
} // namespace osp
