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
try {
    JsonFields f(v);
    for (const JsonValue &e : jsonArray(f("counters"))) {
        const std::vector<JsonValue> &t = jsonArray(e, 3);
        m.counters.push_back(
            {jsonString(t[0]), jsonString(t[1]), jsonUint(t[2])});
    }
    for (const JsonValue &e : jsonArray(f("gauges"))) {
        const std::vector<JsonValue> &t = jsonArray(e, 3);
        m.gauges.push_back(
            {jsonString(t[0]), jsonString(t[1]), jsonDouble(t[2])});
    }
    for (const JsonValue &e : jsonArray(f("histograms"))) {
        JsonFields g(e);
        HistogramEntry h;
        h.component = jsonString(g("component"));
        h.name = jsonString(g("name"));
        h.count = jsonUint(g("count"));
        h.sum = jsonUint(g("sum"));
        for (const JsonValue &b : jsonArray(g("buckets"))) {
            const std::vector<JsonValue> &pair = jsonArray(b, 2);
            h.buckets.emplace_back(jsonUint(pair[0]), jsonUint(pair[1]));
        }
        g.end();
        m.histograms.push_back(std::move(h));
    }
    f.end();
    return true;
} catch (const JsonShapeError &) {
    return false;
}

} // namespace osp::obs
