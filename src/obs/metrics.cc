#include "metrics.hh"

#include "util/logging.hh"

namespace osp::obs
{

namespace
{

/** Panic helper for a (component, name) registered as two types. */
[[noreturn]] void
duplicateKind(const std::pair<std::string, std::string> &key)
{
    osp_panic("obs::Registry: '", key.first, "/", key.second,
              "' already registered as a different instrument type");
}

/** Snapshot entry for one live histogram. */
HistogramEntry
histogramEntry(std::string component, std::string name,
               const Histogram &h)
{
    HistogramEntry e;
    e.component = std::move(component);
    e.name = std::move(name);
    e.count = h.count();
    e.sum = h.sum();
    for (std::size_t i = 0; i < Histogram::numBuckets; ++i) {
        if (h.bucket(i))
            e.buckets.emplace_back(Histogram::bucketLow(i),
                                   h.bucket(i));
    }
    return e;
}

} // namespace

Counter &
Registry::counter(const std::string &component,
                  const std::string &name)
{
    Key key{component, name};
    if (gauges_.count(key) || histograms_.count(key))
        duplicateKind(key);
    return counters_[std::move(key)];
}

Gauge &
Registry::gauge(const std::string &component, const std::string &name)
{
    Key key{component, name};
    if (counters_.count(key) || histograms_.count(key))
        duplicateKind(key);
    return gauges_[std::move(key)];
}

Histogram &
Registry::histogram(const std::string &component,
                    const std::string &name)
{
    Key key{component, name};
    if (counters_.count(key) || gauges_.count(key))
        duplicateKind(key);
    return histograms_[std::move(key)];
}

MetricsSnapshot
Registry::snapshot() const
{
    MetricsSnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto &[key, c] : counters_)
        snap.counters.push_back({key.first, key.second, c.value()});
    snap.gauges.reserve(gauges_.size());
    for (const auto &[key, g] : gauges_)
        snap.gauges.push_back({key.first, key.second, g.value()});
    snap.histograms.reserve(histograms_.size());
    for (const auto &[key, h] : histograms_)
        snap.histograms.push_back(
            histogramEntry(key.first, key.second, h));
    return snap;
}

std::uint64_t
MetricsSnapshot::counterValue(std::string_view component,
                              std::string_view name) const
{
    for (const auto &c : counters) {
        if (c.component == component && c.name == name)
            return c.value;
    }
    return 0;
}

} // namespace osp::obs
