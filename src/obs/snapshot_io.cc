#include "snapshot_io.hh"

namespace osp::obs
{

void
addHistogramFields(JsonValue &obj, const HistogramEntry &h)
{
    obj.add("count", h.count);
    obj.add("sum", h.sum);
    JsonValue buckets = JsonValue::array();
    for (const auto &[low, count] : h.buckets) {
        JsonValue b = JsonValue::array();
        b.append(low);
        b.append(count);
        buckets.append(std::move(b));
    }
    obj.add("buckets", std::move(buckets));
}

JsonValue
metricsSnapshotToJson(const MetricsSnapshot &m)
{
    JsonValue v = JsonValue::object();
    JsonValue counters = JsonValue::array();
    for (const auto &c : m.counters) {
        JsonValue e = JsonValue::array();
        e.append(c.component);
        e.append(c.name);
        e.append(c.value);
        counters.append(std::move(e));
    }
    v.add("counters", std::move(counters));
    JsonValue gauges = JsonValue::array();
    for (const auto &g : m.gauges) {
        JsonValue e = JsonValue::array();
        e.append(g.component);
        e.append(g.name);
        e.append(g.value);
        gauges.append(std::move(e));
    }
    v.add("gauges", std::move(gauges));
    JsonValue histograms = JsonValue::array();
    for (const auto &h : m.histograms) {
        JsonValue e = JsonValue::object();
        e.add("component", h.component);
        e.add("name", h.name);
        addHistogramFields(e, h);
        histograms.append(std::move(e));
    }
    v.add("histograms", std::move(histograms));
    return v;
}

bool
metricsSnapshotFromJson(const JsonValue &v, MetricsSnapshot &m)
{
    if (!v.isObject())
        return false;
    const JsonValue *counters = v.find("counters");
    const JsonValue *gauges = v.find("gauges");
    const JsonValue *histograms = v.find("histograms");
    if (!counters || !gauges || !histograms)
        return false;
    for (const JsonValue &e : counters->elements()) {
        if (!e.isArray() || e.size() != 3)
            return false;
        CounterEntry c;
        c.component = e.at(0).asString();
        c.name = e.at(1).asString();
        c.value = e.at(2).asUint();
        m.counters.push_back(std::move(c));
    }
    for (const JsonValue &e : gauges->elements()) {
        if (!e.isArray() || e.size() != 3)
            return false;
        GaugeEntry g;
        g.component = e.at(0).asString();
        g.name = e.at(1).asString();
        g.value = e.at(2).asDouble();
        m.gauges.push_back(std::move(g));
    }
    for (const JsonValue &e : histograms->elements()) {
        if (!e.isObject())
            return false;
        const JsonValue *component = e.find("component");
        const JsonValue *name = e.find("name");
        const JsonValue *count = e.find("count");
        const JsonValue *sum = e.find("sum");
        const JsonValue *buckets = e.find("buckets");
        if (!component || !name || !count || !sum || !buckets)
            return false;
        HistogramEntry h;
        h.component = component->asString();
        h.name = name->asString();
        h.count = count->asUint();
        h.sum = sum->asUint();
        for (const JsonValue &b : buckets->elements()) {
            if (!b.isArray() || b.size() != 2)
                return false;
            h.buckets.emplace_back(b.at(0).asUint(),
                                   b.at(1).asUint());
        }
        m.histograms.push_back(std::move(h));
    }
    return true;
}

} // namespace osp::obs
