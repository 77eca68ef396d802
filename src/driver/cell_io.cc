#include "cell_io.hh"

#include "obs/snapshot_io.hh"
#include "util/json.hh"

namespace osp
{

namespace
{

/** Signals a malformed document to decodeCellResult's catch. */
struct BadDocument
{
};

/** Object member access that throws BadDocument instead of
 *  panicking — a corrupt cache value must decode to nullopt. */
const JsonValue &
field(const JsonValue &obj, std::string_view key)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        throw BadDocument{};
    return *v;
}

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

bool
memFromJson(const JsonValue &v, HierarchyCounts &m)
{
    if (!v.isArray() || v.size() != 6)
        return false;
    m.l1iAccesses = v.at(0).asUint();
    m.l1iMisses = v.at(1).asUint();
    m.l1dAccesses = v.at(2).asUint();
    m.l1dMisses = v.at(3).asUint();
    m.l2Accesses = v.at(4).asUint();
    m.l2Misses = v.at(5).asUint();
    return true;
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

bool
totalsFromJson(const JsonValue &v, RunTotals &t)
{
    if (!v.isObject())
        return false;
    const JsonValue *services = v.find("per_service");
    if (!services || !services->isArray() ||
        services->size() != t.perService.size())
        return false;
    t.appInsts = field(v, "app_insts").asUint();
    t.osInsts = field(v, "os_insts").asUint();
    t.osPredInsts = field(v, "os_pred_insts").asUint();
    t.appCycles = field(v, "app_cycles").asUint();
    t.osSimCycles = field(v, "os_sim_cycles").asUint();
    t.osPredCycles = field(v, "os_pred_cycles").asUint();
    t.osInvocations = field(v, "os_invocations").asUint();
    t.osSimulated = field(v, "os_simulated").asUint();
    t.osPredicted = field(v, "os_predicted").asUint();
    if (!memFromJson(field(v, "measured_mem"), t.measuredMem) ||
        !memFromJson(field(v, "predicted_mem"), t.predictedMem))
        return false;
    for (std::size_t i = 0; i < t.perService.size(); ++i) {
        const JsonValue &sv = services->at(i);
        if (!sv.isArray() || sv.size() != 5)
            return false;
        ServiceTotals &s = t.perService[i];
        s.invocations = sv.at(0).asUint();
        s.simulated = sv.at(1).asUint();
        s.predicted = sv.at(2).asUint();
        s.insts = sv.at(3).asUint();
        s.cycles = sv.at(4).asUint();
    }
    return true;
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

bool
statsFromJson(const JsonValue &v, ServicePredictor::Stats &s)
{
    if (!v.isArray() || v.size() != 9)
        return false;
    s.warmupRuns = v.at(0).asUint();
    s.learnedRuns = v.at(1).asUint();
    s.predictedRuns = v.at(2).asUint();
    s.outliers = v.at(3).asUint();
    s.relearnEvents = v.at(4).asUint();
    s.audits = v.at(5).asUint();
    s.auditFailures = v.at(6).asUint();
    s.auditWarmupRuns = v.at(7).asUint();
    s.driftResets = v.at(8).asUint();
    return true;
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

bool
accuracyFromJson(const JsonValue &v, obs::AccuracySnapshot &a)
{
    if (!v.isObject())
        return false;
    const JsonValue *entries = v.find("entries");
    if (!entries || !entries->isArray())
        return false;
    a.tolerance = field(v, "tolerance").asDouble();
    a.totalCycles = field(v, "total_cycles").asUint();
    a.predictedCycles = field(v, "predicted_cycles").asUint();
    for (const JsonValue &ev : entries->elements()) {
        if (!ev.isObject())
            return false;
        obs::AccuracyEntry e;
        e.service = static_cast<std::uint8_t>(
            field(ev, "service").asUint());
        e.cluster = static_cast<std::uint32_t>(
            field(ev, "cluster").asUint());
        e.predictions = field(ev, "predictions").asUint();
        e.outlierPredictions = field(ev, "outlier_predictions").asUint();
        e.predictedCycles = field(ev, "predicted_cycles").asUint();
        e.audits = field(ev, "audits").asUint();
        e.auditFailures = field(ev, "audit_failures").asUint();
        e.errCount = field(ev, "err_count").asUint();
        e.errMean = field(ev, "err_mean").asDouble();
        e.errM2 = field(ev, "err_m2").asDouble();
        e.errMin = field(ev, "err_min").asDouble();
        e.errMax = field(ev, "err_max").asDouble();
        e.missCount = field(ev, "miss_count").asUint();
        e.missMean = field(ev, "miss_mean").asDouble();
        e.ipcCount = field(ev, "ipc_count").asUint();
        e.ipcMean = field(ev, "ipc_mean").asDouble();
        e.ci95 = field(ev, "ci95").asDouble();
        e.hasCi = field(ev, "has_ci").asBool();
        e.drift = field(ev, "drift").asBool();
        a.entries.push_back(e);
    }
    return true;
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
    if (!ok || !doc.isObject())
        return std::nullopt;
    const JsonValue *schema = doc.find("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != cellSchema)
        return std::nullopt;
    const JsonValue *cell = doc.find("cell");
    if (!cell || !cell->isObject())
        return std::nullopt;

    CellResult r;
    r.cell.index =
        static_cast<std::size_t>(field(*cell, "index").asUint());
    r.cell.workload = field(*cell, "workload").asString();
    r.cell.mode = static_cast<RunMode>(field(*cell, "mode").asUint());
    r.cell.predictorIndex = static_cast<std::size_t>(
        field(*cell, "predictor_index").asUint());
    r.cell.pollutionIndex = static_cast<std::size_t>(
        field(*cell, "pollution_index").asUint());
    r.cell.l2Bytes = field(*cell, "l2_bytes").asUint();
    r.cell.seedIndex = field(*cell, "seed_index").asUint();
    r.cell.seed = field(*cell, "seed").asUint();

    if (const JsonValue *error = doc.find("error")) {
        r.failed = true;
        r.error = error->asString();
        return r;
    }

    const JsonValue *totals = doc.find("totals");
    const JsonValue *telemetry = doc.find("telemetry");
    const JsonValue *trace_info = doc.find("trace_info");
    const JsonValue *accuracy = doc.find("accuracy");
    const JsonValue *trace = doc.find("trace");
    if (!totals || !telemetry || !trace_info || !accuracy ||
        !trace || !trace->isArray())
        return std::nullopt;
    if (!totalsFromJson(*totals, r.totals))
        return std::nullopt;
    if (const JsonValue *stats = doc.find("stats")) {
        if (!statsFromJson(*stats, r.stats))
            return std::nullopt;
        r.hasStats = true;
    }
    if (!obs::metricsSnapshotFromJson(*telemetry, r.telemetry))
        return std::nullopt;
    if (!trace_info->isArray() || trace_info->size() != 3)
        return std::nullopt;
    r.traceInfo.capacity =
        static_cast<std::size_t>(trace_info->at(0).asUint());
    r.traceInfo.recorded = trace_info->at(1).asUint();
    r.traceInfo.dropped = trace_info->at(2).asUint();
    if (!accuracyFromJson(*accuracy, r.accuracy))
        return std::nullopt;
    for (const JsonValue &e : trace->elements()) {
        if (!e.isArray() || e.size() != 5)
            return std::nullopt;
        obs::TraceEvent ev;
        ev.tick = e.at(0).asUint();
        ev.a = e.at(1).asUint();
        ev.b = e.at(2).asUint();
        ev.kind =
            static_cast<obs::TraceEventKind>(e.at(3).asUint());
        ev.service =
            static_cast<std::uint8_t>(e.at(4).asUint());
        r.trace.push_back(ev);
    }
    if (const JsonValue *profile = doc.find("plt_profile"))
        r.pltProfile = profile->asString();

    // A sampled-mode cell without its sample section is a payload
    // from a stale schema: reject it (decoding to a miss) rather
    // than assembling a document with a silently absent estimate.
    const JsonValue *sample = doc.find("sample");
    if (isSampledMode(r.cell.mode) &&
        (!sample || !sample->isObject()))
        return std::nullopt;
    if (sample && sample->isObject()) {
        CellSampleSection &s = r.sample;
        s.present = true;
        s.intervalLen = field(*sample, "interval_len").asUint();
        s.numIntervals = field(*sample, "num_intervals").asUint();
        s.numStrata = field(*sample, "num_strata").asUint();
        s.sampledIntervals =
            field(*sample, "sampled_intervals").asUint();
        s.tailInsts = field(*sample, "tail_insts").asUint();
        s.tailCycles = field(*sample, "tail_cycles").asUint();
        s.detailedAppInsts =
            field(*sample, "detailed_app_insts").asUint();
        s.ffAppInsts = field(*sample, "ff_app_insts").asUint();
        s.estAppCycles =
            field(*sample, "est_app_cycles").asDouble();
        s.estTotalCycles =
            field(*sample, "est_total_cycles").asDouble();
        s.ciHalfWidth = field(*sample, "ci95_half").asDouble();
        s.df = field(*sample, "df").asUint();
        s.hasCi = field(*sample, "has_ci").asBool();
        s.detailedFraction =
            field(*sample, "detailed_fraction").asDouble();
        const JsonValue &strata = field(*sample, "strata");
        if (!strata.isArray())
            return std::nullopt;
        for (const JsonValue &row : strata.elements()) {
            if (!row.isArray() || row.size() != 4)
                return std::nullopt;
            StratumEstimate h;
            h.population = row.at(0).asUint();
            h.sampled = row.at(1).asUint();
            h.mean = row.at(2).asDouble();
            h.sampleVar = row.at(3).asDouble();
            r.sample.strata.push_back(h);
        }
    }
    return r;
} catch (const BadDocument &) {
    return std::nullopt;
}

} // namespace osp
