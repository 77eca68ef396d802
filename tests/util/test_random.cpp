/** @file Unit tests for the PCG32 generator. */

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "util/random.hh"

namespace osp
{
namespace
{

TEST(Pcg32, SameSeedSameSequence)
{
    Pcg32 a(123, 7);
    Pcg32 b(123, 7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Pcg32, DifferentSeedsDiffer)
{
    Pcg32 a(123, 7);
    Pcg32 b(124, 7);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(Pcg32, DifferentStreamsDiffer)
{
    Pcg32 a(123, 7);
    Pcg32 b(123, 8);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(Pcg32, ReseedReplays)
{
    Pcg32 a(55, 1);
    std::vector<std::uint32_t> first;
    for (int i = 0; i < 64; ++i)
        first.push_back(a.next());
    a.reseed(55, 1);
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(a.next(), first[i]);
}

TEST(Pcg32, RangeRespectsBound)
{
    Pcg32 rng(9);
    for (std::uint32_t bound : {1u, 2u, 3u, 10u, 255u, 1000u}) {
        for (int i = 0; i < 2000; ++i) {
            std::uint32_t v = rng.range(bound);
            ASSERT_LT(v, bound);
        }
    }
}

TEST(Pcg32, RangeZeroOrOneIsZero)
{
    Pcg32 rng(9);
    EXPECT_EQ(rng.range(0), 0u);
    EXPECT_EQ(rng.range(1), 0u);
}

TEST(Pcg32, RangeCoversAllValues)
{
    Pcg32 rng(11);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.range(7));
    EXPECT_EQ(seen.size(), 7u);
}

/** range()'s definition, spelled out: reject draws below
 *  2^32 mod bound, return the remainder; bound <= 1 draws nothing. */
std::uint32_t
referenceRange(Pcg32 &rng, std::uint32_t bound)
{
    if (bound <= 1)
        return 0;
    std::uint64_t threshold = (std::uint64_t(1) << 32) % bound;
    for (;;) {
        std::uint32_t r = rng.next();
        if (r >= threshold)
            return r % bound;
    }
}

/** A bound that differs from the memoized one takes the cheap
 *  fresh-bound path; a repeated bound takes the memo. Both must make
 *  the definition's draws and return its values, including at the
 *  edges of the rejection rule (bound 2^31+1 rejects almost half of
 *  all draws, 0xffffffff accepts all but one). */
TEST(Pcg32, FreshBoundRangeMatchesMemoizedPath)
{
    for (std::uint32_t bound :
         {1u, 2u, 7u, 2049u, 0x80000001u, 0xffffffffu}) {
        // Alternating with another bound: every call is fresh.
        Pcg32 fresh(31, 4);
        Pcg32 want(31, 4);
        for (int i = 0; i < 4000; ++i) {
            ASSERT_EQ(fresh.range(bound), referenceRange(want, bound))
                << "bound " << bound << " draw " << i;
            ASSERT_EQ(fresh.range(3), referenceRange(want, 3));
        }
        EXPECT_EQ(fresh.next(), want.next()) << "bound " << bound;

        // The same bound over and over: memoized after the second.
        Pcg32 memo(31, 4);
        Pcg32 want_memo(31, 4);
        Pcg32::RangeDraw draw = Pcg32::makeRange(bound);
        Pcg32 with(31, 4);
        for (int i = 0; i < 4000; ++i) {
            std::uint32_t v = referenceRange(want_memo, bound);
            ASSERT_EQ(memo.range(bound), v) << "bound " << bound;
            ASSERT_EQ(with.rangeWith(draw), v) << "bound " << bound;
        }
        std::uint32_t tail = want_memo.next();
        EXPECT_EQ(memo.next(), tail) << "bound " << bound;
        EXPECT_EQ(with.next(), tail) << "bound " << bound;
    }
}

TEST(Pcg32, RangeInclusiveBounds)
{
    Pcg32 rng(13);
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.rangeInclusive(3, 6);
        ASSERT_GE(v, 3);
        ASSERT_LE(v, 6);
    }
}

TEST(Pcg32, RangeInclusiveWideSpans)
{
    // Regression: spans wider than 2^32 used to be truncated to
    // their low 32 bits, so e.g. [0, 2^32] could only ever return
    // 0 and large spans sampled a tiny sliver of their range.
    Pcg32 rng(47);
    const std::int64_t lo = 0;
    const std::int64_t hi = (1LL << 40) - 1;
    bool above32 = false;
    for (int i = 0; i < 4000; ++i) {
        auto v = rng.rangeInclusive(lo, hi);
        ASSERT_GE(v, lo);
        ASSERT_LE(v, hi);
        if (v > 0xFFFFFFFFLL)
            above32 = true;
    }
    // A 40-bit span returns >32-bit values ~255/256 of the time;
    // 4000 draws all landing below 2^32 means the truncation bug.
    EXPECT_TRUE(above32);
}

TEST(Pcg32, RangeInclusiveSpanOfExactlyTwoToThe32)
{
    // The span 2^32 itself (hi - lo + 1 just above uint32) was the
    // sharpest failure: truncation made it span 0, always lo.
    Pcg32 rng(53);
    const std::int64_t lo = 10;
    const std::int64_t hi = 10 + (1LL << 32);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 256; ++i) {
        auto v = rng.rangeInclusive(lo, hi);
        ASSERT_GE(v, lo);
        ASSERT_LE(v, hi);
        seen.insert(v);
    }
    EXPECT_GT(seen.size(), 200u);
}

TEST(Pcg32, RangeInclusiveFullInt64Span)
{
    // [INT64_MIN, INT64_MAX]: the span wraps to 0, which encodes
    // the full 2^64 range. Both signs must show up.
    Pcg32 rng(59);
    bool neg = false;
    bool pos = false;
    for (int i = 0; i < 256; ++i) {
        auto v = rng.rangeInclusive(
            std::numeric_limits<std::int64_t>::min(),
            std::numeric_limits<std::int64_t>::max());
        neg = neg || v < 0;
        pos = pos || v > 0;
    }
    EXPECT_TRUE(neg);
    EXPECT_TRUE(pos);
}

TEST(Pcg32, RangeInclusiveNarrowSpansPreserveHistoricalStream)
{
    // Spans that fit in 32 bits keep the original single-draw
    // path, so existing seeded experiments replay identically:
    // the offsets must equal range() of the same generator state.
    Pcg32 a(61, 3);
    Pcg32 b(61, 3);
    for (int i = 0; i < 512; ++i) {
        auto v = a.rangeInclusive(-20, 100);
        auto off = b.range(121);
        ASSERT_EQ(v, -20 + static_cast<std::int64_t>(off));
    }
}

TEST(Pcg32, Range64RespectsBound)
{
    Pcg32 rng(67);
    for (std::uint64_t bound :
         {2ULL, 1000ULL, (1ULL << 33), (1ULL << 63) + 12345ULL}) {
        for (int i = 0; i < 500; ++i)
            ASSERT_LT(rng.range64(bound), bound);
    }
    EXPECT_EQ(rng.range64(1), 0u);
}

TEST(Pcg32, UniformInUnitInterval)
{
    Pcg32 rng(17);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Pcg32, UniformRangeBounds)
{
    Pcg32 rng(19);
    for (int i = 0; i < 5000; ++i) {
        double u = rng.uniform(2.5, 7.5);
        ASSERT_GE(u, 2.5);
        ASSERT_LT(u, 7.5);
    }
}

TEST(Pcg32, ChanceExtremes)
{
    Pcg32 rng(23);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Pcg32, ChanceFrequency)
{
    Pcg32 rng(29);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Pcg32, GeometricMeanMatches)
{
    Pcg32 rng(41);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        auto g = rng.geometric(0.25);
        ASSERT_GE(g, 1u);
        sum += g;
    }
    EXPECT_NEAR(sum / n, 4.0, 0.25);
}

TEST(Pcg32, GeometricEdgeProbabilities)
{
    Pcg32 rng(43);
    EXPECT_EQ(rng.geometric(1.0), 1u);
    EXPECT_EQ(rng.geometric(0.0), 1u);
}

TEST(Pcg32, ReseedEqualsFresh)
{
    // reseed must drop the range and geometric memos too, so the new
    // stream draws exactly like a freshly constructed generator.
    Pcg32 rng(61, 2);
    rng.range(1000);
    rng.geometric(0.3);
    rng.reseed(67, 3);
    Pcg32 fresh(67, 3);
    for (int i = 0; i < 8; ++i) {
        ASSERT_EQ(rng.range(1000), fresh.range(1000)) << i;
        ASSERT_EQ(rng.geometric(0.3), fresh.geometric(0.3)) << i;
    }
    ASSERT_EQ(rng.next(), fresh.next());
}

/** geometricWith(makeGeomTable(p)) is geometric(p), draw for draw:
 *  the lowering's dep-distance draws rely on it. Covers every
 *  dep-distance probability the code profiles use, a p too small to
 *  get a table, and the two degenerate probabilities. */
TEST(Pcg32, GeometricTableMatchesFormula)
{
    const double ps[] = {1 / 2.5, 1 / 3.0, 1 / 3.5, 1 / 4.0,
                         1 / 5.0, 1 / 6.0, 1 / 8.0, 0.005,
                         0.0,     1.0};
    for (double p : ps) {
        Pcg32::GeomTable table = Pcg32::makeGeomTable(p);
        if (p > 0.01 && p < 1.0)
            EXPECT_GT(table.entries, 0u) << p;
        else
            EXPECT_EQ(table.entries, 0u) << p;
        Pcg32 a(71, 5);
        Pcg32 b(71, 5);
        for (int i = 0; i < 1000000; ++i)
            ASSERT_EQ(a.geometricWith(table), b.geometric(p))
                << "p " << p << " draw " << i;
        ASSERT_EQ(a.next(), b.next()) << p;
    }
}

} // namespace
} // namespace osp
