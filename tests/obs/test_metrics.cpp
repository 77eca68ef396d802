/** @file Tests for the telemetry metrics registry: instrument
 *  behaviour, pointer stability, snapshot determinism, and the
 *  cross-type registration guard. */

#include <gtest/gtest.h>

#include "obs/metrics.hh"

namespace osp::obs
{
namespace
{

TEST(Counter, IncrementsByOneAndByN)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetOverwrites)
{
    Gauge g;
    g.set(3.5);
    g.set(-1.25);
    EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(Histogram, BucketsByBitWidth)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(~0ULL), 64u);

    EXPECT_EQ(Histogram::bucketLow(0), 0u);
    EXPECT_EQ(Histogram::bucketLow(1), 1u);
    EXPECT_EQ(Histogram::bucketLow(5), 16u);

    // Every value lands in the bucket whose range contains it.
    for (std::size_t i = 1; i < Histogram::numBuckets; ++i) {
        std::uint64_t low = Histogram::bucketLow(i);
        EXPECT_EQ(Histogram::bucketOf(low), i);
        if (i + 1 < Histogram::numBuckets) {
            EXPECT_EQ(Histogram::bucketOf(2 * low - 1), i);
        }
    }
}

TEST(Histogram, ObserveTracksCountSumOccupancy)
{
    Histogram h;
    h.observe(0);
    h.observe(5);
    h.observe(7);
    h.observe(1000);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 1012u);
    EXPECT_EQ(h.bucket(0), 1u);   // 0
    EXPECT_EQ(h.bucket(3), 2u);   // 5, 7 in [4, 7]
    EXPECT_EQ(h.bucket(10), 1u);  // 1000 in [512, 1023]
}

TEST(Registry, ReturnsStableInstrumentReferences)
{
    Registry reg;
    Counter &a = reg.counter("machine", "ops");
    a.inc(3);
    // Later registrations must not move existing instruments.
    for (int i = 0; i < 64; ++i) {
        std::string name = "c";
        name += std::to_string(i);
        reg.counter(name, "n");
    }
    Counter &again = reg.counter("machine", "ops");
    EXPECT_EQ(&a, &again);
    EXPECT_EQ(again.value(), 3u);
}

TEST(Registry, SnapshotIsSortedRegardlessOfRegistrationOrder)
{
    // Two registries populated in opposite orders must snapshot
    // identically — the root of the results document's thread-count
    // byte-invariance.
    Registry fwd;
    fwd.counter("a", "x").inc(1);
    fwd.counter("b", "y").inc(2);
    fwd.gauge("a", "g").set(0.5);

    Registry rev;
    rev.gauge("a", "g").set(0.5);
    rev.counter("b", "y").inc(2);
    rev.counter("a", "x").inc(1);

    MetricsSnapshot s1 = fwd.snapshot();
    MetricsSnapshot s2 = rev.snapshot();
    ASSERT_EQ(s1.counters.size(), 2u);
    EXPECT_EQ(s1.counters[0].component, "a");
    EXPECT_EQ(s1.counters[1].component, "b");
    ASSERT_EQ(s2.counters.size(), 2u);
    for (std::size_t i = 0; i < s1.counters.size(); ++i) {
        EXPECT_EQ(s1.counters[i].component,
                  s2.counters[i].component);
        EXPECT_EQ(s1.counters[i].name, s2.counters[i].name);
        EXPECT_EQ(s1.counters[i].value, s2.counters[i].value);
    }
    EXPECT_EQ(s1.gauges.size(), 1u);
    EXPECT_EQ(s2.gauges.size(), 1u);
}

TEST(Registry, SnapshotListsOnlyOccupiedHistogramBuckets)
{
    Registry reg;
    Histogram &h = reg.histogram("m", "sizes");
    h.observe(6);
    h.observe(6);
    h.observe(100);

    MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    const HistogramEntry &e = snap.histograms[0];
    EXPECT_EQ(e.count, 3u);
    EXPECT_EQ(e.sum, 112u);
    ASSERT_EQ(e.buckets.size(), 2u);
    EXPECT_EQ(e.buckets[0].first, 4u);    // [4, 7]
    EXPECT_EQ(e.buckets[0].second, 2u);
    EXPECT_EQ(e.buckets[1].first, 64u);   // [64, 127]
    EXPECT_EQ(e.buckets[1].second, 1u);
}

TEST(Registry, CounterValueLookup)
{
    Registry reg;
    reg.counter("machine", "ops").inc(9);
    MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counterValue("machine", "ops"), 9u);
    EXPECT_EQ(snap.counterValue("machine", "absent"), 0u);
    EXPECT_FALSE(snap.empty());
    EXPECT_TRUE(MetricsSnapshot{}.empty());
}

TEST(Registry, CrossTypeRegistrationPanics)
{
    Registry reg;
    reg.counter("m", "x");
    EXPECT_DEATH(reg.gauge("m", "x"), "");
    EXPECT_DEATH(reg.histogram("m", "x"), "");
}

} // namespace
} // namespace osp::obs
