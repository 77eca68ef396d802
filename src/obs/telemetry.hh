/**
 * @file
 * The telemetry sink instrumented components attach to: one metrics
 * registry, one event tracer, and one prediction-accuracy ledger,
 * owned together because they share a lifetime (one simulator
 * instance / sweep cell) and a clock (the tracer's tick, advanced
 * by the Machine).
 *
 * Producers (Machine, Accelerator, ServicePredictor) accept a
 * `Telemetry *` that defaults to null. The tracer and the ledger
 * are event streams: a producer records into them as events happen,
 * behind a null-pointer test. Counts are not: each producer keeps
 * its counts once, in plain fields, and publishes them into the
 * registry when the run ends (Machine at the end of run(), the
 * Accelerator when the sweep runner asks), so a run without a sink
 * pays nothing for them beyond the fields themselves. The sweep
 * runner owns one Telemetry per cell and serializes all three parts
 * into the results document after the run.
 */

#ifndef OSP_OBS_TELEMETRY_HH
#define OSP_OBS_TELEMETRY_HH

#include "accuracy.hh"
#include "metrics.hh"
#include "trace.hh"
#include "util/logging.hh"

namespace osp::obs
{

/** See file comment. */
struct Telemetry
{
    /** @param trace_capacity event-ring size; 0 = metrics only. */
    explicit Telemetry(std::size_t trace_capacity = 0)
        : tracer(trace_capacity)
    {
    }

    Registry registry;
    EventTracer tracer;
    AccuracyLedger accuracy;
};

/** Serializable summary of a tracer's state. */
struct TraceSummary
{
    std::uint64_t capacity = 0;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
};

inline TraceSummary
summarize(const EventTracer &tracer)
{
    return {tracer.capacity(), tracer.recorded(), tracer.dropped()};
}

/**
 * Emit one warn() covering every overflowed ring of a document
 * being serialized (a truncated trace silently missing its oldest
 * events is exactly the kind of artifact that misleads later
 * analysis). Serializers call this once per document with the
 * totals they observed; it is silent when nothing was dropped.
 */
inline void
warnIfDropped(const char *what, std::uint64_t rings_with_drops,
              std::uint64_t total_dropped)
{
    if (total_dropped == 0)
        return;
    warn("telemetry: ", what, ": ", total_dropped,
         " trace event(s) dropped across ", rings_with_drops,
         " ring(s); oldest events are missing - raise the trace "
         "capacity for complete traces");
}

} // namespace osp::obs

#endif // OSP_OBS_TELEMETRY_HH
