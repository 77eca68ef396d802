#include "fleet.hh"

#include <algorithm>
#include <ostream>

#include <unistd.h>

#include "obs/snapshot_io.hh"
#include "obs/telemetry.hh"
#include "store/claim_table.hh"

namespace osp
{

namespace
{

/** Signals a malformed snapshot to decodeWorkerSnapshot's catch. */
struct BadSnapshot
{
};

const JsonValue &
field(const JsonValue &obj, std::string_view key)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        throw BadSnapshot{};
    return *v;
}

JsonValue
statsToJson(const WorkerStats &s)
{
    JsonValue v = JsonValue::object();
    v.add("claimed", s.claimed);
    v.add("executed", s.executed);
    v.add("committed", s.committed);
    v.add("reclaimed", s.reclaimed);
    v.add("retries_recorded", s.retriesRecorded);
    v.add("exhausted", s.exhausted);
    v.add("lost_leases", s.lostLeases);
    v.add("polls", s.polls);
    v.add("heartbeats", s.heartbeats);
    v.add("refreshes", s.refreshes);
    return v;
}

WorkerStats
statsFromJson(const JsonValue &v)
{
    if (!v.isObject())
        throw BadSnapshot{};
    WorkerStats s;
    s.claimed = field(v, "claimed").asUint();
    s.executed = field(v, "executed").asUint();
    s.committed = field(v, "committed").asUint();
    s.reclaimed = field(v, "reclaimed").asUint();
    s.retriesRecorded = field(v, "retries_recorded").asUint();
    s.exhausted = field(v, "exhausted").asUint();
    s.lostLeases = field(v, "lost_leases").asUint();
    s.polls = field(v, "polls").asUint();
    s.heartbeats = field(v, "heartbeats").asUint();
    s.refreshes = field(v, "refreshes").asUint();
    return s;
}

std::uint64_t
steadyUsSince(std::chrono::steady_clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

} // namespace

const char *
fleetEventKindName(FleetEventKind kind)
{
    switch (kind) {
    case FleetEventKind::Claimed:
        return "claimed";
    case FleetEventKind::Reclaimed:
        return "reclaimed";
    case FleetEventKind::Executed:
        return "executed";
    case FleetEventKind::Committed:
        return "committed";
    case FleetEventKind::Retry:
        return "retry";
    case FleetEventKind::Failed:
        return "failed";
    case FleetEventKind::LostLease:
        return "lost_lease";
    case FleetEventKind::Poll:
        return "poll";
    case FleetEventKind::Exited:
        return "exited";
    }
    return "unknown";
}

JsonValue
workerStatsToJson(const WorkerStats &stats, const std::string &owner)
{
    // The fleet snapshot's stats object, owner first.
    JsonValue doc = JsonValue::object();
    doc.add("owner", owner);
    JsonValue fields = statsToJson(stats);
    for (const auto &[key, value] : fields.members())
        doc.add(key, value);
    return doc;
}

std::string
fleetKey(const std::string &fingerprint, const std::string &owner)
{
    return "fleet/" + fingerprint + "/" + owner;
}

std::string
encodeWorkerSnapshot(const WorkerSnapshot &snap)
{
    JsonValue doc = JsonValue::object();
    doc.add("schema", std::string(workerSnapshotSchema));
    doc.add("owner", snap.owner);
    doc.add("pid", snap.pid);
    doc.add("version", snap.version);
    doc.add("epoch", snap.epoch);
    doc.add("phase", snap.exited ? "exited" : "running");
    doc.add("start_unix_us", snap.startUnixUs);
    doc.add("uptime_us", snap.uptimeUs);
    doc.add("stats", statsToJson(snap.stats));
    doc.add("rings_with_drops", snap.ringsWithDrops);
    doc.add("total_dropped", snap.totalDropped);
    JsonValue walls = JsonValue::array();
    for (const auto &[index, us] : snap.cellWalls) {
        JsonValue w = JsonValue::array();
        w.append(index);
        w.append(us);
        walls.append(std::move(w));
    }
    doc.add("cell_walls", std::move(walls));
    JsonValue events = JsonValue::array();
    for (const FleetEvent &ev : snap.events) {
        JsonValue e = JsonValue::array();
        e.append(ev.tUs);
        e.append(static_cast<std::uint64_t>(ev.kind));
        e.append(ev.cell);
        e.append(ev.durUs);
        events.append(std::move(e));
    }
    doc.add("events", std::move(events));
    doc.add("events_dropped", snap.eventsDropped);
    doc.add("metrics", obs::metricsSnapshotToJson(snap.metrics));
    return doc.dump(-1);
}

std::optional<WorkerSnapshot>
decodeWorkerSnapshot(std::string_view text)
try {
    bool ok = false;
    JsonValue doc = JsonValue::parse(text, &ok);
    if (!ok || !doc.isObject())
        return std::nullopt;
    const JsonValue *schema = doc.find("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != workerSnapshotSchema)
        return std::nullopt;

    WorkerSnapshot snap;
    snap.owner = field(doc, "owner").asString();
    snap.pid = field(doc, "pid").asUint();
    snap.version = field(doc, "version").asUint();
    snap.epoch = field(doc, "epoch").asUint();
    std::string phase = field(doc, "phase").asString();
    if (phase != "running" && phase != "exited")
        return std::nullopt;
    snap.exited = phase == "exited";
    snap.startUnixUs = field(doc, "start_unix_us").asUint();
    snap.uptimeUs = field(doc, "uptime_us").asUint();
    snap.stats = statsFromJson(field(doc, "stats"));
    snap.ringsWithDrops = field(doc, "rings_with_drops").asUint();
    snap.totalDropped = field(doc, "total_dropped").asUint();
    for (const JsonValue &w : field(doc, "cell_walls").elements()) {
        if (!w.isArray() || w.size() != 2)
            return std::nullopt;
        snap.cellWalls.emplace_back(w.at(0).asUint(),
                                    w.at(1).asUint());
    }
    for (const JsonValue &e : field(doc, "events").elements()) {
        if (!e.isArray() || e.size() != 4)
            return std::nullopt;
        FleetEvent ev;
        ev.tUs = e.at(0).asUint();
        std::uint64_t kind = e.at(1).asUint();
        if (kind >= numFleetEventKinds)
            return std::nullopt;
        ev.kind = static_cast<FleetEventKind>(kind);
        ev.cell = e.at(2).asUint();
        ev.durUs = e.at(3).asUint();
        snap.events.push_back(ev);
    }
    snap.eventsDropped = field(doc, "events_dropped").asUint();
    if (!obs::metricsSnapshotFromJson(field(doc, "metrics"),
                                      snap.metrics))
        return std::nullopt;
    return snap;
} catch (const BadSnapshot &) {
    return std::nullopt;
}

// --- FleetPublisher --------------------------------------------------

FleetPublisher::FleetPublisher(std::string fingerprint,
                               std::string owner,
                               std::size_t event_capacity)
    : fingerprint_(std::move(fingerprint)),
      owner_(std::move(owner)), eventCapacity_(event_capacity),
      pid_(static_cast<std::uint64_t>(::getpid())),
      startUnixUs_(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count())),
      start_(std::chrono::steady_clock::now())
{
}

std::uint64_t
FleetPublisher::nowUs() const
{
    return steadyUsSince(start_);
}

void
FleetPublisher::noteEvent(FleetEventKind kind, std::uint64_t cell,
                          std::uint64_t dur_us, std::uint64_t t_us)
{
    if (eventCapacity_ == 0) {
        ++eventsDropped_;
        return;
    }
    if (events_.size() >= eventCapacity_) {
        events_.erase(events_.begin());
        ++eventsDropped_;
    }
    FleetEvent ev;
    ev.tUs = t_us == UINT64_MAX ? nowUs() : t_us;
    ev.kind = kind;
    ev.cell = cell;
    ev.durUs = dur_us;
    events_.push_back(ev);
}

void
FleetPublisher::noteCellWall(std::uint64_t cell_index,
                             std::uint64_t wall_us)
{
    cellWalls_.emplace_back(cell_index, wall_us);
    registry_.histogram("claim_loop", "cell_wall_us")
        .observe(wall_us);
}

void
FleetPublisher::noteTraceDrops(std::uint64_t dropped)
{
    if (dropped == 0)
        return;
    ++ringsWithDrops_;
    totalDropped_ += dropped;
}

void
FleetPublisher::observeClaimTx(std::uint64_t us)
{
    registry_.histogram("claim_loop", "claim_tx_us").observe(us);
}

void
FleetPublisher::observeCommitTx(std::uint64_t us)
{
    registry_.histogram("claim_loop", "commit_tx_us").observe(us);
}

void
FleetPublisher::publish(store::WriteTx &tx,
                        store::PageStore &store,
                        const WorkerStats &stats,
                        std::uint64_t epoch, bool exited)
{
    WorkerSnapshot snap;
    snap.owner = owner_;
    snap.pid = pid_;
    snap.version = ++version_;
    snap.epoch = epoch;
    snap.exited = exited;
    snap.startUnixUs = startUnixUs_;
    snap.uptimeUs = nowUs();
    snap.stats = stats;
    snap.ringsWithDrops = ringsWithDrops_;
    snap.totalDropped = totalDropped_;
    snap.cellWalls = cellWalls_;
    snap.events = events_;
    snap.eventsDropped = eventsDropped_;

    // Merged-metrics payload: the claim loop's own histograms, then
    // the store's self-profile as component "store". Entries must
    // stay in sorted (component, name) order for merge();
    // "claim_loop" < "store" and the store names are appended
    // alphabetically, so plain push_back preserves it.
    snap.metrics = registry_.snapshot();
    store::StoreProfile p = store.profile();
    snap.metrics.counters.push_back(
        {"store", "commit_count", p.commitCount});
    snap.metrics.counters.push_back(
        {"store", "commit_us_total", p.commitUsTotal});
    snap.metrics.counters.push_back(
        {"store", "lock_acquisitions", p.lockAcquisitions});
    snap.metrics.counters.push_back(
        {"store", "lock_wait_us_total", p.lockWaitUsTotal});
    snap.metrics.counters.push_back(
        {"store", "pages_written_total", p.pagesWrittenTotal});
    snap.metrics.histograms.push_back(obs::histogramEntry(
        "store", "commit_cow_pages", p.commitCowPages));
    snap.metrics.histograms.push_back(obs::histogramEntry(
        "store", "commit_leaf_reads", p.commitLeafReads));
    snap.metrics.histograms.push_back(
        obs::histogramEntry("store", "commit_us", p.commitUs));
    snap.metrics.histograms.push_back(
        obs::histogramEntry("store", "lock_wait_us", p.lockWaitUs));

    tx.put(fleetKey(fingerprint_, owner_),
           encodeWorkerSnapshot(snap));
}

// --- aggregation -----------------------------------------------------

FleetView
readFleetView(store::PageStore &store,
              const std::string &fingerprint,
              const std::vector<std::string> &cell_keys)
{
    FleetView view;
    view.fingerprint = fingerprint;
    store::ClaimTable table(fingerprint);

    store::ReadTx read = store.beginRead();
    view.heartbeat = table.heartbeat(read);

    view.cells.total = cell_keys.size();
    const std::string cell_prefix = "cell/" + fingerprint + "/";
    for (const std::string &key : cell_keys) {
        if (read.get(cell_prefix + key)) {
            ++view.cells.done;
            continue;
        }
        auto rec = table.get(read, key);
        if (!rec) {
            ++view.cells.unclaimed;
            continue;
        }
        switch (rec->state) {
        case store::ClaimState::Done:
            ++view.cells.done;
            break;
        case store::ClaimState::Failed:
            ++view.cells.failed;
            break;
        case store::ClaimState::Claimed:
            ++view.cells.claimed;
            break;
        case store::ClaimState::Retry:
            ++view.cells.retry;
            break;
        }
    }

    // Worker snapshots scan in key order, which is owner order —
    // the aggregation (and every report derived from it) is
    // deterministic in the store contents alone.
    const std::string prefix = "fleet/" + fingerprint + "/";
    read.scan(prefix, [&](std::string_view, std::string_view v) {
        if (auto snap = decodeWorkerSnapshot(v))
            view.workers.push_back(std::move(*snap));
        return true;
    });

    for (const WorkerSnapshot &w : view.workers) {
        view.totals.claimed += w.stats.claimed;
        view.totals.executed += w.stats.executed;
        view.totals.committed += w.stats.committed;
        view.totals.reclaimed += w.stats.reclaimed;
        view.totals.retriesRecorded += w.stats.retriesRecorded;
        view.totals.exhausted += w.stats.exhausted;
        view.totals.lostLeases += w.stats.lostLeases;
        view.totals.polls += w.stats.polls;
        view.totals.heartbeats += w.stats.heartbeats;
        view.totals.refreshes += w.stats.refreshes;
        view.ringsWithDrops += w.ringsWithDrops;
        view.totalDropped += w.totalDropped;
        view.merged.merge(w.metrics);
    }
    return view;
}

namespace
{

std::uint64_t
heartbeatLag(const FleetView &view, const WorkerSnapshot &w)
{
    return view.heartbeat >= w.epoch ? view.heartbeat - w.epoch : 0;
}

const char *
workerPhase(const FleetView &view, const WorkerSnapshot &w,
            std::uint64_t lease_ticks)
{
    if (w.exited)
        return "exited";
    return heartbeatLag(view, w) > lease_ticks ? "stale" : "live";
}

} // namespace

JsonValue
fleetReportToJson(const FleetView &view)
{
    JsonValue doc = JsonValue::object();
    doc.add("schema", std::string(fleetReportSchema));
    doc.add("fingerprint", view.fingerprint);
    doc.add("sweep", view.sweep);
    doc.add("heartbeat", view.heartbeat);

    JsonValue cells = JsonValue::object();
    cells.add("total", view.cells.total);
    cells.add("done", view.cells.done);
    cells.add("failed", view.cells.failed);
    cells.add("claimed", view.cells.claimed);
    cells.add("retry", view.cells.retry);
    cells.add("unclaimed", view.cells.unclaimed);
    cells.add("outstanding", view.cells.outstanding());
    doc.add("cells", std::move(cells));

    JsonValue totals = statsToJson(view.totals);
    totals.add("rings_with_drops", view.ringsWithDrops);
    totals.add("total_dropped", view.totalDropped);
    doc.add("totals", std::move(totals));

    JsonValue workers = JsonValue::array();
    for (const WorkerSnapshot &w : view.workers) {
        JsonValue v = JsonValue::object();
        v.add("owner", w.owner);
        v.add("pid", w.pid);
        v.add("phase", w.exited ? "exited" : "running");
        v.add("version", w.version);
        v.add("epoch", w.epoch);
        v.add("heartbeat_lag", heartbeatLag(view, w));
        v.add("start_unix_us", w.startUnixUs);
        v.add("uptime_us", w.uptimeUs);
        v.add("stats", statsToJson(w.stats));
        v.add("rings_with_drops", w.ringsWithDrops);
        v.add("total_dropped", w.totalDropped);
        v.add("cells_executed",
              static_cast<std::uint64_t>(w.cellWalls.size()));
        std::uint64_t wall_us = 0;
        for (const auto &[index, us] : w.cellWalls)
            wall_us += us;
        v.add("cell_wall_us_total", wall_us);
        v.add("events",
              static_cast<std::uint64_t>(w.events.size()));
        v.add("events_dropped", w.eventsDropped);
        workers.append(std::move(v));
    }
    doc.add("workers", std::move(workers));

    doc.add("metrics", obs::metricsSnapshotToJson(view.merged));
    return doc;
}

void
writeFleetReport(std::ostream &os, const FleetView &view)
{
    fleetReportToJson(view).write(os, 2);
    os << "\n";
}

// --- Prometheus text exposition --------------------------------------

namespace
{

/** Escape a Prometheus label value (\, ", newline). */
std::string
promEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '\\' || c == '"')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

/** One `name{labels} value` sample line. */
void
promSample(std::ostream &os, const std::string &name,
           const std::string &labels, std::uint64_t value)
{
    os << name;
    if (!labels.empty())
        os << "{" << labels << "}";
    os << " " << value << "\n";
}

void
promType(std::ostream &os, const std::string &name,
         const char *type, const char *help)
{
    os << "# HELP " << name << " " << help << "\n";
    os << "# TYPE " << name << " " << type << "\n";
}

} // namespace

void
writePrometheusReport(std::ostream &os, const FleetView &view)
{
    const std::string fleet_labels = "sweep=\"" +
                                     promEscape(view.sweep) +
                                     "\"";

    promType(os, "ospredict_fleet_heartbeat", "gauge",
             "Logical heartbeat counter of the sweep fingerprint.");
    promSample(os, "ospredict_fleet_heartbeat", fleet_labels,
               view.heartbeat);

    promType(os, "ospredict_fleet_cells", "gauge",
             "Sweep cells by claim/result state.");
    const std::pair<const char *, std::uint64_t> states[] = {
        {"done", view.cells.done},
        {"failed", view.cells.failed},
        {"claimed", view.cells.claimed},
        {"retry", view.cells.retry},
        {"unclaimed", view.cells.unclaimed},
    };
    for (const auto &[state, count] : states)
        promSample(os, "ospredict_fleet_cells",
                   fleet_labels + ",state=\"" + state + "\"",
                   count);
    promType(os, "ospredict_fleet_cells_total", "gauge",
             "Total cells in the sweep expansion.");
    promSample(os, "ospredict_fleet_cells_total", fleet_labels,
               view.cells.total);

    promType(os, "ospredict_worker_up", "gauge",
             "1 while the worker is running, 0 after a clean exit.");
    for (const WorkerSnapshot &w : view.workers)
        promSample(os, "ospredict_worker_up",
                   "owner=\"" + promEscape(w.owner) + "\"",
                   w.exited ? 0 : 1);
    promType(os, "ospredict_worker_heartbeat_lag", "gauge",
             "Heartbeat ticks since the worker's last snapshot.");
    for (const WorkerSnapshot &w : view.workers)
        promSample(os, "ospredict_worker_heartbeat_lag",
                   "owner=\"" + promEscape(w.owner) + "\"",
                   heartbeatLag(view, w));
    promType(os, "ospredict_worker_snapshot_version", "gauge",
             "Snapshot publish counter of the worker.");
    for (const WorkerSnapshot &w : view.workers)
        promSample(os, "ospredict_worker_snapshot_version",
                   "owner=\"" + promEscape(w.owner) + "\"",
                   w.version);

    struct StatColumn
    {
        const char *name;
        const char *help;
        std::uint64_t WorkerStats::*member;
    };
    const StatColumn columns[] = {
        {"claimed", "Claim transactions won.",
         &WorkerStats::claimed},
        {"executed", "Cells actually run.", &WorkerStats::executed},
        {"committed", "Results committed (done).",
         &WorkerStats::committed},
        {"reclaimed", "Expired leases taken over.",
         &WorkerStats::reclaimed},
        {"retries_recorded", "Failures marked retry.",
         &WorkerStats::retriesRecorded},
        {"exhausted", "Cells marked terminally failed.",
         &WorkerStats::exhausted},
        {"lost_leases", "Results discarded (lease reclaimed).",
         &WorkerStats::lostLeases},
        {"polls", "Idle waits on live leases.",
         &WorkerStats::polls},
        {"heartbeats", "Heartbeat bumps.",
         &WorkerStats::heartbeats},
        {"refreshes", "Lease epochs re-asserted mid-execution.",
         &WorkerStats::refreshes},
    };
    for (const StatColumn &col : columns) {
        std::string name =
            std::string("ospredict_worker_") + col.name + "_total";
        promType(os, name, "counter", col.help);
        for (const WorkerSnapshot &w : view.workers)
            promSample(os, name,
                       "owner=\"" + promEscape(w.owner) + "\"",
                       w.stats.*col.member);
    }

    promType(os, "ospredict_worker_trace_dropped_total", "counter",
             "Trace events dropped by the worker's executed cells.");
    for (const WorkerSnapshot &w : view.workers)
        promSample(os, "ospredict_worker_trace_dropped_total",
                   "owner=\"" + promEscape(w.owner) + "\"",
                   w.totalDropped);

    // Merged histograms, in cumulative-bucket exposition. A bucket
    // with inclusive lower bound L covers [L, 2L-1] (power-of-two
    // layout), so its le is 2L-1 (0 for the zero bucket).
    for (const obs::HistogramEntry &h : view.merged.histograms) {
        std::string name =
            "ospredict_" + h.component + "_" + h.name;
        promType(os, name, "histogram",
                 "Merged across fleet workers.");
        std::uint64_t cumulative = 0;
        for (const auto &[low, count] : h.buckets) {
            cumulative += count;
            std::uint64_t le = low == 0 ? 0 : 2 * low - 1;
            promSample(os, name + "_bucket",
                       "le=\"" + std::to_string(le) + "\"",
                       cumulative);
        }
        promSample(os, name + "_bucket", "le=\"+Inf\"", h.count);
        promSample(os, name + "_sum", "", h.sum);
        promSample(os, name + "_count", "", h.count);
    }
}

// --- monitor rendering -----------------------------------------------

void
renderFleetStatus(std::ostream &os, const FleetView &view,
                  std::uint64_t lease_ticks)
{
    os << "fleet " << (view.sweep.empty() ? "?" : view.sweep)
       << ": fingerprint " << view.fingerprint << ", heartbeat "
       << view.heartbeat << "\n";
    os << "  cells: " << view.cells.done << "/" << view.cells.total
       << " done, " << view.cells.failed << " failed, "
       << view.cells.claimed << " claimed, " << view.cells.retry
       << " retry, " << view.cells.unclaimed << " unclaimed\n";

    std::uint64_t live = 0;
    std::uint64_t wall_us = 0;
    std::uint64_t walls = 0;
    for (const WorkerSnapshot &w : view.workers) {
        const char *phase = workerPhase(view, w, lease_ticks);
        if (std::string_view(phase) == "live")
            ++live;
        for (const auto &[index, us] : w.cellWalls) {
            wall_us += us;
            ++walls;
        }
        os << "  worker " << w.owner << " [" << phase << "] pid "
           << w.pid << " v" << w.version << " lag "
           << heartbeatLag(view, w) << ": claimed "
           << w.stats.claimed << ", executed " << w.stats.executed
           << ", committed " << w.stats.committed << ", reclaimed "
           << w.stats.reclaimed << ", lost " << w.stats.lostLeases
           << ", polls " << w.stats.polls;
        if (w.totalDropped)
            os << ", dropped " << w.totalDropped;
        os << "\n";
    }
    if (view.workers.empty())
        os << "  (no worker snapshots yet)\n";

    std::uint64_t outstanding = view.cells.outstanding();
    if (outstanding == 0) {
        os << "  complete\n";
        return;
    }
    if (walls && live) {
        double mean_us =
            static_cast<double>(wall_us) / static_cast<double>(walls);
        double eta_s = static_cast<double>(outstanding) * mean_us /
                       static_cast<double>(live) / 1e6;
        os << "  throughput: " << walls << " cells, mean "
           << mean_us / 1000.0 << " ms/cell; eta ~" << eta_s
           << " s (" << live << " live worker(s))\n";
    } else if (live == 0) {
        os << "  stalled: " << outstanding
           << " cell(s) outstanding, no live workers\n";
    } else {
        os << "  " << outstanding
           << " cell(s) outstanding (no timing history yet)\n";
    }
}

void
warnFleetDrops(const FleetView &view)
{
    for (const WorkerSnapshot &w : view.workers) {
        if (w.totalDropped == 0)
            continue;
        std::string what = "fleet worker " + w.owner;
        obs::warnIfDropped(what.c_str(), w.ringsWithDrops,
                           w.totalDropped);
    }
}

// --- merged chrome trace ---------------------------------------------

void
writeMergedChromeTrace(std::ostream &os, const SweepResult &result,
                       const FleetView &view)
{
    JsonValue doc = JsonValue::object();
    JsonValue events = JsonValue::array();

    // Cell lanes, byte-identical to writeChromeTrace's.
    appendCellTraceEvents(events, result);

    // One process lane per worker, keyed by its real pid, laid out
    // in microseconds since the Unix epoch (each event's wall time
    // reconstructed from the worker's start stamp + steady offset).
    for (const WorkerSnapshot &w : view.workers) {
        JsonValue meta = JsonValue::object();
        meta.add("name", "process_name");
        meta.add("ph", "M");
        meta.add("pid", w.pid);
        JsonValue margs = JsonValue::object();
        margs.add("name", "worker " + w.owner);
        meta.add("args", std::move(margs));
        events.append(std::move(meta));

        JsonValue tmeta = JsonValue::object();
        tmeta.add("name", "thread_name");
        tmeta.add("ph", "M");
        tmeta.add("pid", w.pid);
        tmeta.add("tid", std::uint64_t{0});
        JsonValue targs = JsonValue::object();
        targs.add("name", "claim-loop");
        tmeta.add("args", std::move(targs));
        events.append(std::move(tmeta));

        for (const FleetEvent &ev : w.events) {
            JsonValue e = JsonValue::object();
            e.add("name", fleetEventKindName(ev.kind));
            e.add("pid", w.pid);
            e.add("tid", std::uint64_t{0});
            e.add("ts", w.startUnixUs + ev.tUs);
            if (ev.kind == FleetEventKind::Executed) {
                e.add("ph", "X");
                e.add("dur", ev.durUs);
            } else {
                e.add("ph", "i");
                e.add("s", "t");
            }
            JsonValue args = JsonValue::object();
            args.add("owner", w.owner);
            if (ev.cell != FleetEvent::noCell)
                args.add("cell", ev.cell);
            e.add("args", std::move(args));
            events.append(std::move(e));
        }
    }

    doc.add("traceEvents", std::move(events));
    doc.add("displayTimeUnit", "ns");
    JsonValue other = JsonValue::object();
    other.add("clock",
              "cell lanes: retired-instructions; worker lanes: "
              "unix-epoch microseconds");
    other.add("sweep", result.spec.name);
    other.add("workers",
              static_cast<std::uint64_t>(view.workers.size()));
    doc.add("otherData", std::move(other));
    doc.write(os, 2);
    os << "\n";
}

} // namespace osp
