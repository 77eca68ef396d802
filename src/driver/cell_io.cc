#include "cell_io.hh"

#include <limits>

#include "obs/snapshot_io.hh"
#include "util/json.hh"

namespace osp
{

namespace
{

// Encoders. Compact array forms keep the cache values small where
// the data is regular (trace events, counters); everything else is
// a keyed object so the format stays debuggable with jq.

JsonValue
memToJson(const HierarchyCounts &m)
{
    JsonValue v = JsonValue::array();
    v.append(m.l1iAccesses);
    v.append(m.l1iMisses);
    v.append(m.l1dAccesses);
    v.append(m.l1dMisses);
    v.append(m.l2Accesses);
    v.append(m.l2Misses);
    return v;
}

HierarchyCounts
memFromJson(const JsonValue &v)
{
    const std::vector<JsonValue> &e = jsonArray(v, 6);
    HierarchyCounts m;
    m.l1iAccesses = jsonUint(e[0]);
    m.l1iMisses = jsonUint(e[1]);
    m.l1dAccesses = jsonUint(e[2]);
    m.l1dMisses = jsonUint(e[3]);
    m.l2Accesses = jsonUint(e[4]);
    m.l2Misses = jsonUint(e[5]);
    return m;
}

JsonValue
totalsToJson(const RunTotals &t)
{
    JsonValue v = JsonValue::object();
    v.add("app_insts", t.appInsts);
    v.add("os_insts", t.osInsts);
    v.add("os_pred_insts", t.osPredInsts);
    v.add("app_cycles", t.appCycles);
    v.add("os_sim_cycles", t.osSimCycles);
    v.add("os_pred_cycles", t.osPredCycles);
    v.add("os_invocations", t.osInvocations);
    v.add("os_simulated", t.osSimulated);
    v.add("os_predicted", t.osPredicted);
    v.add("measured_mem", memToJson(t.measuredMem));
    v.add("predicted_mem", memToJson(t.predictedMem));
    JsonValue services = JsonValue::array();
    for (const ServiceTotals &s : t.perService) {
        JsonValue sv = JsonValue::array();
        sv.append(s.invocations);
        sv.append(s.simulated);
        sv.append(s.predicted);
        sv.append(s.insts);
        sv.append(s.cycles);
        services.append(std::move(sv));
    }
    v.add("per_service", std::move(services));
    return v;
}

void
totalsFromJson(const JsonValue &v, RunTotals &t)
{
    JsonFields f(v);
    t.appInsts = jsonUint(f("app_insts"));
    t.osInsts = jsonUint(f("os_insts"));
    t.osPredInsts = jsonUint(f("os_pred_insts"));
    t.appCycles = jsonUint(f("app_cycles"));
    t.osSimCycles = jsonUint(f("os_sim_cycles"));
    t.osPredCycles = jsonUint(f("os_pred_cycles"));
    t.osInvocations = jsonUint(f("os_invocations"));
    t.osSimulated = jsonUint(f("os_simulated"));
    t.osPredicted = jsonUint(f("os_predicted"));
    t.measuredMem = memFromJson(f("measured_mem"));
    t.predictedMem = memFromJson(f("predicted_mem"));
    const std::vector<JsonValue> &services =
        jsonArray(f("per_service"), t.perService.size());
    f.end();
    for (std::size_t i = 0; i < t.perService.size(); ++i) {
        const std::vector<JsonValue> &sv = jsonArray(services[i], 5);
        ServiceTotals &s = t.perService[i];
        s.invocations = jsonUint(sv[0]);
        s.simulated = jsonUint(sv[1]);
        s.predicted = jsonUint(sv[2]);
        s.insts = jsonUint(sv[3]);
        s.cycles = jsonUint(sv[4]);
    }
}

JsonValue
statsToJson(const ServicePredictor::Stats &s)
{
    JsonValue v = JsonValue::array();
    v.append(s.warmupRuns);
    v.append(s.learnedRuns);
    v.append(s.predictedRuns);
    v.append(s.outliers);
    v.append(s.relearnEvents);
    v.append(s.audits);
    v.append(s.auditFailures);
    v.append(s.auditWarmupRuns);
    v.append(s.driftResets);
    return v;
}

ServicePredictor::Stats
statsFromJson(const JsonValue &v)
{
    const std::vector<JsonValue> &e = jsonArray(v, 9);
    ServicePredictor::Stats s;
    s.warmupRuns = jsonUint(e[0]);
    s.learnedRuns = jsonUint(e[1]);
    s.predictedRuns = jsonUint(e[2]);
    s.outliers = jsonUint(e[3]);
    s.relearnEvents = jsonUint(e[4]);
    s.audits = jsonUint(e[5]);
    s.auditFailures = jsonUint(e[6]);
    s.auditWarmupRuns = jsonUint(e[7]);
    s.driftResets = jsonUint(e[8]);
    return s;
}

/** jsonUint() of a field the encoder widened from @p T. */
template <class T>
T
narrowUint(const JsonValue &v)
{
    const std::uint64_t u = jsonUint(v);
    if (u > std::numeric_limits<T>::max())
        throw JsonShapeError{};
    return static_cast<T>(u);
}

JsonValue
accuracyToJson(const obs::AccuracySnapshot &a)
{
    JsonValue v = JsonValue::object();
    v.add("tolerance", a.tolerance);
    v.add("total_cycles", a.totalCycles);
    v.add("predicted_cycles", a.predictedCycles);
    JsonValue entries = JsonValue::array();
    for (const obs::AccuracyEntry &e : a.entries) {
        JsonValue ev = JsonValue::object();
        ev.add("service", static_cast<std::uint64_t>(e.service));
        ev.add("cluster", static_cast<std::uint64_t>(e.cluster));
        ev.add("predictions", e.predictions);
        ev.add("outlier_predictions", e.outlierPredictions);
        ev.add("predicted_cycles", e.predictedCycles);
        ev.add("audits", e.audits);
        ev.add("audit_failures", e.auditFailures);
        ev.add("err_count", e.errCount);
        ev.add("err_mean", e.errMean);
        ev.add("err_m2", e.errM2);
        ev.add("err_min", e.errMin);
        ev.add("err_max", e.errMax);
        ev.add("miss_count", e.missCount);
        ev.add("miss_mean", e.missMean);
        ev.add("ipc_count", e.ipcCount);
        ev.add("ipc_mean", e.ipcMean);
        ev.add("ci95", e.ci95);
        ev.add("has_ci", e.hasCi);
        ev.add("drift", e.drift);
        entries.append(std::move(ev));
    }
    v.add("entries", std::move(entries));
    return v;
}

obs::AccuracySnapshot
accuracyFromJson(const JsonValue &v)
{
    JsonFields f(v);
    obs::AccuracySnapshot a;
    a.tolerance = jsonDouble(f("tolerance"));
    a.totalCycles = jsonUint(f("total_cycles"));
    a.predictedCycles = jsonUint(f("predicted_cycles"));
    for (const JsonValue &ev : jsonArray(f("entries"))) {
        JsonFields g(ev);
        obs::AccuracyEntry e;
        e.service = narrowUint<std::uint8_t>(g("service"));
        e.cluster = narrowUint<std::uint32_t>(g("cluster"));
        e.predictions = jsonUint(g("predictions"));
        e.outlierPredictions = jsonUint(g("outlier_predictions"));
        e.predictedCycles = jsonUint(g("predicted_cycles"));
        e.audits = jsonUint(g("audits"));
        e.auditFailures = jsonUint(g("audit_failures"));
        e.errCount = jsonUint(g("err_count"));
        e.errMean = jsonDouble(g("err_mean"));
        e.errM2 = jsonDouble(g("err_m2"));
        e.errMin = jsonDouble(g("err_min"));
        e.errMax = jsonDouble(g("err_max"));
        e.missCount = jsonUint(g("miss_count"));
        e.missMean = jsonDouble(g("miss_mean"));
        e.ipcCount = jsonUint(g("ipc_count"));
        e.ipcMean = jsonDouble(g("ipc_mean"));
        e.ci95 = jsonDouble(g("ci95"));
        e.hasCi = jsonBool(g("has_ci"));
        e.drift = jsonBool(g("drift"));
        g.end();
        a.entries.push_back(e);
    }
    f.end();
    return a;
}

} // namespace

void
addSampleFields(JsonValue &obj, const CellSampleSection &s)
{
    obj.add("num_intervals", s.numIntervals);
    obj.add("num_strata", s.numStrata);
    obj.add("sampled_intervals", s.sampledIntervals);
    obj.add("tail_insts", s.tailInsts);
    obj.add("tail_cycles", s.tailCycles);
    obj.add("detailed_app_insts", s.detailedAppInsts);
    obj.add("ff_app_insts", s.ffAppInsts);
    obj.add("est_app_cycles", s.estAppCycles);
    obj.add("est_total_cycles", s.estTotalCycles);
    obj.add("ci95_half", s.ciHalfWidth);
    obj.add("df", s.df);
    obj.add("has_ci", s.hasCi);
    obj.add("detailed_fraction", s.detailedFraction);
    JsonValue strata = JsonValue::array();
    for (const StratumEstimate &h : s.strata) {
        JsonValue row = JsonValue::array();
        row.append(h.population);
        row.append(h.sampled);
        row.append(h.mean);
        row.append(h.sampleVar);
        strata.append(std::move(row));
    }
    obj.add("strata", std::move(strata));
}

std::string
encodeCellResult(const CellResult &r)
{
    JsonValue doc = JsonValue::object();
    doc.add("schema", cellSchema);

    JsonValue cell = JsonValue::object();
    cell.add("index", static_cast<std::uint64_t>(r.cell.index));
    cell.add("workload", r.cell.workload);
    cell.add("mode", static_cast<std::uint64_t>(r.cell.mode));
    cell.add("predictor_index",
             static_cast<std::uint64_t>(r.cell.predictorIndex));
    cell.add("pollution_index",
             static_cast<std::uint64_t>(r.cell.pollutionIndex));
    cell.add("l2_bytes", r.cell.l2Bytes);
    cell.add("seed_index", r.cell.seedIndex);
    cell.add("seed", r.cell.seed);
    doc.add("cell", std::move(cell));

    if (r.failed) {
        doc.add("error", r.error);
        return doc.dump(-1);
    }

    doc.add("totals", totalsToJson(r.totals));
    if (r.hasStats)
        doc.add("stats", statsToJson(r.stats));
    doc.add("telemetry", obs::metricsSnapshotToJson(r.telemetry));

    JsonValue trace_info = JsonValue::array();
    trace_info.append(
        static_cast<std::uint64_t>(r.traceInfo.capacity));
    trace_info.append(r.traceInfo.recorded);
    trace_info.append(r.traceInfo.dropped);
    doc.add("trace_info", std::move(trace_info));

    doc.add("accuracy", accuracyToJson(r.accuracy));

    JsonValue events = JsonValue::array();
    for (const obs::TraceEvent &ev : r.trace) {
        JsonValue e = JsonValue::array();
        e.append(ev.tick);
        e.append(ev.a);
        e.append(ev.b);
        e.append(static_cast<std::uint64_t>(ev.kind));
        e.append(static_cast<std::uint64_t>(ev.service));
        events.append(std::move(e));
    }
    doc.add("trace", std::move(events));

    if (!r.pltProfile.empty())
        doc.add("plt_profile", r.pltProfile);

    // Sampled cells carry their measured/estimated sample section
    // (oracle comparisons are aggregator-derived and deliberately
    // absent: a cached cell must not depend on other cells).
    if (r.sample.present) {
        JsonValue sv = JsonValue::object();
        sv.add("interval_len", r.sample.intervalLen);
        addSampleFields(sv, r.sample);
        doc.add("sample", std::move(sv));
    }
    return doc.dump(-1);
}

std::optional<CellResult>
decodeCellResult(std::string_view text)
try {
    bool ok = false;
    JsonValue doc = JsonValue::parse(text, &ok);
    if (!ok)
        return std::nullopt;
    // Every member is read in the encoder's order and must have the
    // encoder's shape, so nothing in the value is skipped or
    // re-typed.
    JsonFields f(doc);
    if (jsonString(f("schema")) != cellSchema)
        return std::nullopt;

    CellResult r;
    JsonFields cell(f("cell"));
    r.cell.index = jsonUint(cell("index"));
    r.cell.workload = jsonString(cell("workload"));
    const std::uint64_t mode = jsonUint(cell("mode"));
    if (mode > static_cast<std::uint64_t>(RunMode::SampledAccel))
        return std::nullopt;
    r.cell.mode = static_cast<RunMode>(mode);
    r.cell.predictorIndex = jsonUint(cell("predictor_index"));
    r.cell.pollutionIndex = jsonUint(cell("pollution_index"));
    r.cell.l2Bytes = jsonUint(cell("l2_bytes"));
    r.cell.seedIndex = jsonUint(cell("seed_index"));
    r.cell.seed = jsonUint(cell("seed"));
    cell.end();

    if (f.next("error")) {
        r.failed = true;
        r.error = jsonString(f("error"));
        f.end();
        return r;
    }

    totalsFromJson(f("totals"), r.totals);
    if (f.next("stats")) {
        r.stats = statsFromJson(f("stats"));
        r.hasStats = true;
    }
    if (!obs::metricsSnapshotFromJson(f("telemetry"), r.telemetry))
        return std::nullopt;
    const std::vector<JsonValue> &trace_info =
        jsonArray(f("trace_info"), 3);
    r.traceInfo.capacity = jsonUint(trace_info[0]);
    r.traceInfo.recorded = jsonUint(trace_info[1]);
    r.traceInfo.dropped = jsonUint(trace_info[2]);
    r.accuracy = accuracyFromJson(f("accuracy"));
    for (const JsonValue &e : jsonArray(f("trace"))) {
        const std::vector<JsonValue> &t = jsonArray(e, 5);
        obs::TraceEvent ev;
        ev.tick = jsonUint(t[0]);
        ev.a = jsonUint(t[1]);
        ev.b = jsonUint(t[2]);
        ev.kind = static_cast<obs::TraceEventKind>(
            narrowUint<std::uint8_t>(t[3]));
        ev.service = narrowUint<std::uint8_t>(t[4]);
        r.trace.push_back(ev);
    }
    if (f.next("plt_profile")) {
        // The encoder leaves an empty profile out.
        r.pltProfile = jsonString(f("plt_profile"));
        if (r.pltProfile.empty())
            return std::nullopt;
    }

    // A sampled-mode cell without its sample section is a payload
    // from a stale schema: reject it (decoding to a miss) rather
    // than assembling a document with a silently absent estimate.
    if (isSampledMode(r.cell.mode) && !f.next("sample"))
        return std::nullopt;
    if (f.next("sample")) {
        JsonFields g(f("sample"));
        CellSampleSection &s = r.sample;
        s.present = true;
        s.intervalLen = jsonUint(g("interval_len"));
        s.numIntervals = jsonUint(g("num_intervals"));
        s.numStrata = jsonUint(g("num_strata"));
        s.sampledIntervals = jsonUint(g("sampled_intervals"));
        s.tailInsts = jsonUint(g("tail_insts"));
        s.tailCycles = jsonUint(g("tail_cycles"));
        s.detailedAppInsts = jsonUint(g("detailed_app_insts"));
        s.ffAppInsts = jsonUint(g("ff_app_insts"));
        s.estAppCycles = jsonDouble(g("est_app_cycles"));
        s.estTotalCycles = jsonDouble(g("est_total_cycles"));
        s.ciHalfWidth = jsonDouble(g("ci95_half"));
        s.df = jsonUint(g("df"));
        s.hasCi = jsonBool(g("has_ci"));
        s.detailedFraction = jsonDouble(g("detailed_fraction"));
        for (const JsonValue &row : jsonArray(g("strata"))) {
            const std::vector<JsonValue> &h = jsonArray(row, 4);
            StratumEstimate e;
            e.population = jsonUint(h[0]);
            e.sampled = jsonUint(h[1]);
            e.mean = jsonDouble(h[2]);
            e.sampleVar = jsonDouble(h[3]);
            s.strata.push_back(e);
        }
        g.end();
    }
    f.end();
    return r;
} catch (const JsonShapeError &) {
    return std::nullopt;
}

} // namespace osp
