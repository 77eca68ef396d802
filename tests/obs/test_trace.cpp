/** @file Tests for the bounded event tracer: disabled mode, ring
 *  overflow semantics, tick stamping, and kind names. */

#include <gtest/gtest.h>

#include "obs/telemetry.hh"
#include "obs/trace.hh"

namespace osp::obs
{
namespace
{

TEST(EventTracer, ZeroCapacityIsDisabled)
{
    EventTracer t(0);
    t.record(TraceEventKind::Outlier, 3, 1, 2);
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_TRUE(t.events().empty());
}

TEST(EventTracer, RecordsStampTickAndPayload)
{
    EventTracer t(8);
    t.setTick(1000);
    t.record(TraceEventKind::ServiceDetailed, 2, 50, 170);
    t.setTick(1050);
    t.record(TraceEventKind::ClusterMatch, 2, 4, 50);

    auto events = t.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].tick, 1000u);
    EXPECT_EQ(events[0].kind, TraceEventKind::ServiceDetailed);
    EXPECT_EQ(events[0].service, 2);
    EXPECT_EQ(events[0].a, 50u);
    EXPECT_EQ(events[0].b, 170u);
    EXPECT_EQ(events[1].tick, 1050u);
    EXPECT_EQ(events[1].kind, TraceEventKind::ClusterMatch);
}

TEST(EventTracer, OverflowDropsOldestKeepsOrder)
{
    EventTracer t(4);
    for (std::uint64_t i = 0; i < 10; ++i) {
        t.setTick(i);
        t.record(TraceEventKind::Outlier, traceNoService, i, 0);
    }
    EXPECT_EQ(t.recorded(), 10u);
    EXPECT_EQ(t.dropped(), 6u);

    // Retained: the last four, oldest first.
    auto events = t.events();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i].tick, 6 + i);
        EXPECT_EQ(events[i].a, 6 + i);
    }
}

TEST(EventTracer, ExactCapacityDropsNothing)
{
    EventTracer t(3);
    for (std::uint64_t i = 0; i < 3; ++i)
        t.record(TraceEventKind::Audit, traceNoService, 1, 0);
    EXPECT_EQ(t.recorded(), 3u);
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_EQ(t.events().size(), 3u);
}

TEST(EventTracer, KindNamesAreDistinct)
{
    const TraceEventKind kinds[] = {
        TraceEventKind::ServiceDetailed,
        TraceEventKind::ServicePredicted,
        TraceEventKind::ClusterMatch,
        TraceEventKind::Outlier,
        TraceEventKind::ModeTransition,
        TraceEventKind::Relearn,
        TraceEventKind::Audit,
        TraceEventKind::Pollution,
    };
    for (TraceEventKind a : kinds) {
        ASSERT_NE(traceEventKindName(a), nullptr);
        EXPECT_STRNE(traceEventKindName(a), "?");
        for (TraceEventKind b : kinds) {
            if (a != b) {
                EXPECT_STRNE(traceEventKindName(a),
                             traceEventKindName(b));
            }
        }
    }
}

TEST(Telemetry, SummarizeReflectsTracerState)
{
    Telemetry t(2);
    t.tracer.record(TraceEventKind::Relearn, 0, 0, 100);
    t.tracer.record(TraceEventKind::Relearn, 0, 1, 100);
    t.tracer.record(TraceEventKind::Relearn, 0, 1, 100);

    TraceSummary s = summarize(t.tracer);
    EXPECT_EQ(s.capacity, 2u);
    EXPECT_EQ(s.recorded, 3u);
    EXPECT_EQ(s.dropped, 1u);

    Telemetry metrics_only;
    EXPECT_EQ(summarize(metrics_only.tracer).capacity, 0u);
}

} // namespace
} // namespace osp::obs
