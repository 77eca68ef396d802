/** @file Tests for the kernel page cache. */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "os/page_cache.hh"

namespace osp
{
namespace
{

constexpr Addr base = 0xD0000000ULL;

TEST(PageCache, MissThenHit)
{
    PageCache pc(4, base);
    EXPECT_FALSE(pc.lookup(1, 0).has_value());
    auto fill = pc.fill(1, 0);
    EXPECT_FALSE(fill.evicted);
    auto hit = pc.lookup(1, 0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, fill.frameAddr);
}

TEST(PageCache, FrameAddressesAreDistinctAndAligned)
{
    PageCache pc(4, base);
    Addr a = pc.fill(1, 0).frameAddr;
    Addr b = pc.fill(1, 1).frameAddr;
    EXPECT_NE(a, b);
    EXPECT_EQ(a % 4096, 0u);
    EXPECT_EQ(b % 4096, 0u);
    EXPECT_GE(a, base);
    // Frames come from the rotating pool: capacity x spread (8).
    EXPECT_LT(a, base + 4 * 8 * 4096);
}

TEST(PageCache, LruEvictionAtCapacity)
{
    PageCache pc(2, base);
    pc.fill(1, 0);
    pc.fill(1, 1);
    pc.lookup(1, 0);  // refresh page 0: page 1 becomes LRU
    auto fill = pc.fill(1, 2);
    EXPECT_TRUE(fill.evicted);
    EXPECT_TRUE(pc.lookup(1, 0).has_value());
    EXPECT_FALSE(pc.lookup(1, 1).has_value());
    EXPECT_TRUE(pc.lookup(1, 2).has_value());
}

TEST(PageCache, StableAddressWhileResident)
{
    PageCache pc(8, base);
    Addr first = pc.fill(3, 7).frameAddr;
    pc.fill(3, 8);
    auto again = pc.lookup(3, 7);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, first);
}

TEST(PageCache, RefillingResidentPageIsNotEviction)
{
    PageCache pc(2, base);
    Addr a = pc.fill(1, 0).frameAddr;
    auto refill = pc.fill(1, 0);
    EXPECT_FALSE(refill.evicted);
    EXPECT_EQ(refill.frameAddr, a);
}

TEST(PageCache, FilesDoNotCollide)
{
    PageCache pc(8, base);
    pc.fill(1, 5);
    EXPECT_FALSE(pc.lookup(2, 5).has_value());
}

TEST(PageCache, CapacitySaturation)
{
    PageCache pc(4, base);
    for (std::uint32_t p = 0; p < 16; ++p)
        pc.fill(1, p);
    // Only the four most recent pages survive.
    for (std::uint32_t p = 0; p < 12; ++p)
        EXPECT_FALSE(pc.lookup(1, p).has_value());
    for (std::uint32_t p = 12; p < 16; ++p)
        EXPECT_TRUE(pc.lookup(1, p).has_value());
}

/** Drive @p pc with lookups that refresh old pages between fills
 *  that evict; returns each step's outcome (frame address, low bit
 *  set on an eviction; 0 for a lookup miss). */
std::vector<Addr>
drivePageCache(PageCache &pc)
{
    std::vector<Addr> out;
    for (std::uint32_t step = 0; step < 96; ++step) {
        if (step % 2 == 0) {
            // Page 0 is looked up every fourth step, so a correct
            // LRU keeps it; the other lookups probe old pages.
            const std::uint32_t page = step % 4 == 2 ? 0 : step % 11;
            std::optional<Addr> hit = pc.lookup(1, page);
            out.push_back(hit ? *hit : 0);
        } else {
            PageCache::FillResult f = pc.fill(1, 100 + step % 13);
            out.push_back(f.frameAddr | (f.evicted ? 1 : 0));
        }
    }
    return out;
}

/** A copy carries its own LRU index: driven with the same
 *  sequence as the original and as an independently built twin,
 *  all three agree step for step. A member-wise copy's index
 *  points into the original's list, so a lookup refreshes the
 *  wrong node and a later fill evicts a page the twin keeps. */
TEST(PageCache, CopyDrivesLikeTheOriginal)
{
    PageCache original(8, base);
    PageCache twin(8, base);
    for (std::uint32_t p = 0; p < 8; ++p) {
        original.fill(1, p);
        twin.fill(1, p);
    }
    original.lookup(1, 3);
    twin.lookup(1, 3);
    PageCache copy(original);
    const std::vector<Addr> want = drivePageCache(twin);
    EXPECT_EQ(drivePageCache(copy), want);
    EXPECT_EQ(drivePageCache(original), want);
}

TEST(PageCache, ZeroCapacityDies)
{
    EXPECT_DEATH(PageCache(0, base), "capacity");
}

} // namespace
} // namespace osp
