/**
 * @file
 * Typed simulator metrics: counters, gauges and histograms behind a
 * per-run registry.
 *
 * The registry is the export format of a sweep cell's internal
 * behaviour (predictor phase counts, PLT occupancy, pollution
 * effectiveness) in the results document. It is not where the
 * simulator counts: each component keeps its counts once, in the
 * plain fields it reads itself (RunTotals, ServicePredictor::Stats,
 * CacheStats, a few members next to them), and publishes them into
 * a registry in one step when the run ends. Design constraints, in
 * order:
 *
 *  - *Determinism.* Snapshots enumerate instruments in sorted
 *    (component, name) order, so two runs that perform the same work
 *    serialize byte-identically — the sweep harness extends its
 *    thread-count-invariance contract over the telemetry section.
 *  - *Nothing on the hot path.* Registry lookups are by name and
 *    happen only in a component's end-of-run publish step; a run
 *    with no registry attached publishes nothing.
 *  - *Additive publishing.* Publishing adds a count to the
 *    instrument (Counter::inc, Histogram::merge), so two publishers
 *    of one instrument sum.
 *
 * One registry belongs to one simulator instance (sweep cell); it is
 * deliberately not thread-safe. Parallelism in this repo is across
 * cells, never within one.
 */

#ifndef OSP_OBS_METRICS_HH
#define OSP_OBS_METRICS_HH

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace osp::obs
{

/** A monotonically increasing unsigned count. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** A point-in-time value; set() overwrites. */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * A power-of-two-bucketed histogram of unsigned samples. Bucket i
 * holds values whose bit width is i (bucket 0 is the value 0, bucket
 * i covers [2^(i-1), 2^i - 1]), which is exact enough for the
 * order-of-magnitude questions telemetry answers (interval sizes,
 * predicted miss counts) at a fixed 65-word footprint.
 */
class Histogram
{
  public:
    static constexpr std::size_t numBuckets = 65;

    void
    observe(std::uint64_t value)
    {
        ++buckets_[bucketOf(value)];
        ++count_;
        sum_ += value;
    }

    /** Add every sample of @p other (same bucket layout). */
    void
    merge(const Histogram &other)
    {
        for (std::size_t i = 0; i < numBuckets; ++i)
            buckets_[i] += other.buckets_[i];
        count_ += other.count_;
        sum_ += other.sum_;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }

    /** Occupancy of one bucket. */
    std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }

    /** Bucket index for a value (its bit width). */
    static std::size_t
    bucketOf(std::uint64_t value)
    {
        return static_cast<std::size_t>(std::bit_width(value));
    }

    /** Inclusive lower bound of bucket i. */
    static std::uint64_t
    bucketLow(std::size_t i)
    {
        return i ? 1ULL << (i - 1) : 0;
    }

  private:
    std::uint64_t buckets_[numBuckets] = {};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

/** One counter in a snapshot. */
struct CounterEntry
{
    std::string component;
    std::string name;
    std::uint64_t value = 0;
};

/** One gauge in a snapshot. */
struct GaugeEntry
{
    std::string component;
    std::string name;
    double value = 0.0;
};

/** One histogram in a snapshot; only occupied buckets are listed,
 *  as (inclusive lower bound, count) pairs in ascending order. */
struct HistogramEntry
{
    std::string component;
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
};

/** A registry's full state, in sorted (component, name) order. */
struct MetricsSnapshot
{
    std::vector<CounterEntry> counters;
    std::vector<GaugeEntry> gauges;
    std::vector<HistogramEntry> histograms;

    bool
    empty() const
    {
        return counters.empty() && gauges.empty() &&
               histograms.empty();
    }

    /** Counter value lookup (tests, aggregation); 0 when absent. */
    std::uint64_t counterValue(std::string_view component,
                               std::string_view name) const;
};

/** See file comment. */
class Registry
{
  public:
    /**
     * Find or create an instrument. The returned reference is
     * stable for the registry's lifetime. Registering the same
     * (component, name) under two different instrument types is a
     * bug and panics.
     */
    Counter &counter(const std::string &component,
                     const std::string &name);
    Gauge &gauge(const std::string &component,
                 const std::string &name);
    Histogram &histogram(const std::string &component,
                         const std::string &name);

    /** Enumerate everything in sorted (component, name) order. */
    MetricsSnapshot snapshot() const;

  private:
    using Key = std::pair<std::string, std::string>;

    /** One sorted map per type: node-based, so instrument addresses
     *  are stable and snapshot order is the key order. */
    std::map<Key, Counter> counters_;
    std::map<Key, Gauge> gauges_;
    std::map<Key, Histogram> histograms_;
};

} // namespace osp::obs

#endif // OSP_OBS_METRICS_HH
