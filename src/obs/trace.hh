/**
 * @file
 * A bounded ring-buffer tracer for per-invocation simulator events.
 *
 * Aggregate counters (obs/metrics.hh) answer "how often"; the tracer
 * answers "in what order" — when each service moved between
 * learning and prediction, which cluster matched which invocation,
 * where the pollution injector actually landed. Events are
 * fixed-size PODs stamped with the simulated instruction count (the
 * only clock the determinism contract allows), recorded into a
 * preallocated ring that overwrites the oldest entry on overflow, so
 * tracing cost and memory are bounded no matter how long a run is.
 *
 * A tracer constructed with capacity 0 is *disabled*: record() is a
 * single predictable branch, which is what keeps always-compiled-in
 * telemetry within the harness's overhead budget.
 *
 * The event vocabulary is deliberately small and predictor-centric —
 * it exists to expose the learn/predict machinery the paper's claims
 * are about, not to be a general logging bus.
 */

#ifndef OSP_OBS_TRACE_HH
#define OSP_OBS_TRACE_HH

#include <cstdint>
#include <vector>

namespace osp::obs
{

/** What one trace event describes. Payload fields a/b per kind. */
enum class TraceEventKind : std::uint8_t
{
    /** A fully simulated OS-service interval ended.
     *  a = instructions, b = measured cycles. */
    ServiceDetailed = 0,
    /** An emulated (predicted) interval ended.
     *  a = instructions, b = predicted cycles. */
    ServicePredicted,
    /** A prediction matched a regular PLT cluster.
     *  a = cluster index, b = signature instruction count. */
    ClusterMatch,
    /** A prediction matched no cluster (outlier).
     *  a = signature instruction count, b = outlier entries now
     *  tracked for the service. */
    Outlier,
    /** The predictor changed phase.
     *  a = from, b = to (0 warm-up, 1 learning, 2 predicting). */
    ModeTransition,
    /** A re-learning window opened.
     *  a = reason (0 outlier policy, 1 audit drift), b = window. */
    Relearn,
    /** An audit sample was compared against the PLT.
     *  a = 1 pass / 0 fail, b = consecutive failures after it. */
    Audit,
    /** The pollution injector modelled a skipped service's cache
     *  displacement. a = lines requested, b = slots affected. */
    Pollution,
};

/** Display name ("service-detailed", "cluster-match", ...). */
const char *traceEventKindName(TraceEventKind kind);

/** One fixed-size trace record. */
struct TraceEvent
{
    /** Total retired instructions when the event was recorded. */
    std::uint64_t tick = 0;
    std::uint64_t a = 0;  //!< kind-specific payload
    std::uint64_t b = 0;  //!< kind-specific payload
    TraceEventKind kind = TraceEventKind::ServiceDetailed;
    /** ServiceType index the event concerns; 0xff = whole machine. */
    std::uint8_t service = 0xff;
};

/** Marker for events not tied to one service type. */
inline constexpr std::uint8_t traceNoService = 0xff;

/** See file comment. */
class EventTracer
{
  public:
    /** @param capacity ring size in events; 0 disables tracing. */
    explicit EventTracer(std::size_t capacity = 0)
        : capacity_(capacity)
    {
        ring_.reserve(capacity);
    }

    std::size_t capacity() const { return capacity_; }

    /** Advance the event clock (the machine's instruction count). */
    void setTick(std::uint64_t tick) { tick_ = tick; }

    /** Record one event at the current tick. No-op when disabled. */
    void
    record(TraceEventKind kind, std::uint8_t service,
           std::uint64_t a, std::uint64_t b)
    {
        if (!capacity_)
            return;
        TraceEvent ev;
        ev.tick = tick_;
        ev.a = a;
        ev.b = b;
        ev.kind = kind;
        ev.service = service;
        if (ring_.size() < capacity_) {
            ring_.push_back(ev);
        } else {
            ring_[head_] = ev;
            head_ = (head_ + 1) % capacity_;
        }
        ++recorded_;
    }

    /** Events ever offered to the ring (kept + overwritten). */
    std::uint64_t recorded() const { return recorded_; }

    /** Events lost to overflow (oldest-first overwrite). */
    std::uint64_t
    dropped() const
    {
        return recorded_ - ring_.size();
    }

    /** Retained events, oldest first. */
    std::vector<TraceEvent> events() const;

  private:
    std::size_t capacity_;
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;  //!< oldest entry once the ring is full
    std::uint64_t recorded_ = 0;
    std::uint64_t tick_ = 0;
};

} // namespace osp::obs

#endif // OSP_OBS_TRACE_HH
