/** @file Tests for the metrics-snapshot codec (obs/snapshot_io.hh):
 *  byte-stable round-trips (the format is part of the cell cache's
 *  byte-identity contract) and strict decode of malformed
 *  documents. */

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.hh"
#include "obs/snapshot_io.hh"
#include "util/json.hh"

namespace osp::obs
{
namespace
{

MetricsSnapshot
sampleSnapshot()
{
    Registry reg;
    reg.counter("cache", "hits").inc(7);
    reg.counter("predictor", "transitions").inc(3);
    reg.gauge("plt", "occupancy").set(0.75);
    Histogram &h = reg.histogram("intervals", "length");
    h.observe(0);
    h.observe(1);
    h.observe(5);
    h.observe(5);
    h.observe(1000);
    return reg.snapshot();
}

TEST(SnapshotIo, RoundTripIsByteStable)
{
    MetricsSnapshot snap = sampleSnapshot();
    JsonValue doc = metricsSnapshotToJson(snap);
    std::string bytes = doc.dump(-1);

    MetricsSnapshot back;
    bool ok = false;
    ASSERT_TRUE(metricsSnapshotFromJson(
        JsonValue::parse(bytes, &ok), back));
    ASSERT_TRUE(ok);
    EXPECT_EQ(metricsSnapshotToJson(back).dump(-1), bytes);

    ASSERT_EQ(back.counters.size(), 2u);
    EXPECT_EQ(back.counterValue("cache", "hits"), 7u);
    ASSERT_EQ(back.gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(back.gauges[0].value, 0.75);
    ASSERT_EQ(back.histograms.size(), 1u);
    const HistogramEntry &h = back.histograms[0];
    EXPECT_EQ(h.component, "intervals");
    EXPECT_EQ(h.name, "length");
    EXPECT_EQ(h.count, 5u);
    EXPECT_EQ(h.sum, 1011u);
}

TEST(SnapshotIo, EmptySnapshotRoundTrips)
{
    MetricsSnapshot empty;
    JsonValue doc = metricsSnapshotToJson(empty);
    MetricsSnapshot back;
    ASSERT_TRUE(metricsSnapshotFromJson(doc, back));
    EXPECT_TRUE(back.empty());
}

TEST(SnapshotIo, MalformedDocumentsDecodeFalse)
{
    const char *bad[] = {
        // Counters entry is not a triple.
        R"({"counters":[["c","n"]],"gauges":[],"histograms":[]})",
        // Histogram missing its count field.
        R"({"counters":[],"gauges":[],"histograms":[)"
        R"({"component":"c","name":"n","sum":0,"buckets":[]}]})",
        // Bucket pair is a scalar.
        R"({"counters":[],"gauges":[],"histograms":[)"
        R"({"component":"c","name":"n","count":1,"sum":1,)"
        R"("buckets":[1]}]})",
        // Not an object at all.
        R"([1,2,3])",
    };
    for (const char *text : bad) {
        bool ok = false;
        JsonValue doc = JsonValue::parse(text, &ok);
        ASSERT_TRUE(ok) << text;
        MetricsSnapshot out;
        EXPECT_FALSE(metricsSnapshotFromJson(doc, out)) << text;
    }
}

} // namespace
} // namespace osp::obs
