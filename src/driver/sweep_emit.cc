#include "sweep.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "cell_io.hh"
#include "obs/snapshot_io.hh"
#include "util/table.hh"

namespace osp
{

namespace
{

/** A ledger's service index by name (numerically when it names no
 *  service type). */
std::string
serviceLabel(std::uint8_t service)
{
    return service < numServiceTypes
               ? serviceName(static_cast<ServiceType>(service))
               : std::to_string(service);
}

/** Serialize one cell's metrics snapshot + trace summary. */
JsonValue
telemetryToJson(const obs::MetricsSnapshot &snap,
                const obs::TraceSummary &trace_info)
{
    JsonValue t = JsonValue::object();

    JsonValue counters = JsonValue::object();
    for (const auto &c : snap.counters)
        counters.add(c.component + "." + c.name, c.value);
    t.add("counters", std::move(counters));

    JsonValue gauges = JsonValue::object();
    for (const auto &g : snap.gauges)
        gauges.add(g.component + "." + g.name, g.value);
    t.add("gauges", std::move(gauges));

    JsonValue histograms = JsonValue::object();
    for (const auto &h : snap.histograms) {
        JsonValue hv = JsonValue::object();
        obs::addHistogramFields(hv, h);
        histograms.add(h.component + "." + h.name, std::move(hv));
    }
    t.add("histograms", std::move(histograms));

    JsonValue trace = JsonValue::object();
    trace.add("capacity", trace_info.capacity);
    trace.add("recorded", trace_info.recorded);
    trace.add("dropped", trace_info.dropped);
    t.add("trace", std::move(trace));
    return t;
}

} // namespace

JsonValue
sweepToJson(const SweepResult &result, const JsonOptions &options)
{
    const SweepSpec &spec = result.spec;

    JsonValue doc = JsonValue::object();
    doc.add("schema", "ospredict-sweep-v1");

    JsonValue sweep = JsonValue::object();
    sweep.add("name", spec.name);
    sweep.add("base_seed", spec.baseSeed);
    sweep.add("scale", spec.scale);
    sweep.add("smoke", spec.smoke);
    sweep.add("num_seeds", spec.numSeeds);
    JsonValue workloads = JsonValue::array();
    for (const auto &w : spec.workloads)
        workloads.append(w);
    sweep.add("workloads", std::move(workloads));
    JsonValue modes = JsonValue::array();
    for (RunMode m : spec.modes)
        modes.append(runModeName(m));
    sweep.add("modes", std::move(modes));
    JsonValue predictors = JsonValue::array();
    for (const auto &p : spec.predictors)
        predictors.append(p.label);
    sweep.add("predictors", std::move(predictors));
    JsonValue pollution = JsonValue::array();
    for (PollutionPolicy p : spec.pollution)
        pollution.append(pollutionPolicyName(p));
    sweep.add("pollution", std::move(pollution));
    JsonValue l2s = JsonValue::array();
    for (std::uint64_t l2 : spec.l2Sizes)
        l2s.append(l2);
    sweep.add("l2_bytes", std::move(l2s));
    doc.add("sweep", std::move(sweep));

    JsonValue cells = JsonValue::array();
    for (const CellResult &r : result.cells) {
        JsonValue cell = JsonValue::object();

        JsonValue config = JsonValue::object();
        config.add("index",
                   static_cast<std::uint64_t>(r.cell.index));
        config.add("workload", r.cell.workload);
        config.add("mode", runModeName(r.cell.mode));
        if (needsPredictor(r.cell.mode)) {
            config.add(
                "predictor",
                spec.predictors[r.cell.predictorIndex].label);
            config.add("pollution",
                       pollutionPolicyName(
                           spec.pollution[r.cell.pollutionIndex]));
        }
        config.add("l2_bytes", r.cell.l2Bytes);
        config.add("seed_index", r.cell.seedIndex);
        config.add("seed", r.cell.seed);
        cell.add("config", std::move(config));

        if (r.failed) {
            cell.add("error", r.error);
            cells.append(std::move(cell));
            continue;
        }

        JsonValue metrics = JsonValue::object();
        metrics.add("totals", toJson(r.totals));
        if (r.hasStats)
            metrics.add("predictor_stats", toJson(r.stats));
        cell.add("metrics", std::move(metrics));

        if (!r.telemetry.empty())
            cell.add("telemetry",
                     telemetryToJson(r.telemetry, r.traceInfo));

        JsonValue derived = JsonValue::object();
        if (r.hasBaseline)
            derived.add("cycle_error", r.cycleError);
        if (r.cell.mode == RunMode::Accelerated)
            derived.add("est_speedup_r133", r.estSpeedupR133);
        if (derived.size())
            cell.add("derived", std::move(derived));

        if (options.includeTiming)
            cell.add("wall_s", r.wallSeconds);
        cells.append(std::move(cell));
    }
    doc.add("cells", std::move(cells));

    // Sweep-wide telemetry rollup: counters summed across cells
    // (sorted by std::map, so the section inherits the document's
    // thread-count byte-invariance).
    {
        JsonValue telemetry = JsonValue::object();
        telemetry.add("schema", "ospredict-telemetry-v1");
        std::map<std::string, std::uint64_t> totals;
        std::uint64_t instrumented = 0;
        for (const CellResult &r : result.cells) {
            if (r.failed || r.telemetry.empty())
                continue;
            ++instrumented;
            for (const auto &c : r.telemetry.counters)
                totals[c.component + "." + c.name] += c.value;
        }
        telemetry.add("instrumented_cells", instrumented);
        JsonValue counters = JsonValue::object();
        for (const auto &[name, value] : totals)
            counters.add(name, value);
        telemetry.add("counters", std::move(counters));
        doc.add("telemetry", std::move(telemetry));
    }

    // Prediction-accuracy section: one entry per accelerated cell
    // whose ledger saw predictions, each cross-checked against the
    // oracle (the Full baseline) when one exists, plus a
    // per-service rollup merged across cells. Built in cell-index
    // order from per-cell snapshots, so the section inherits the
    // document's thread-count byte-invariance.
    {
        JsonValue accuracy = JsonValue::object();
        accuracy.add("schema", "ospredict-accuracy-v1");

        struct ServiceRoll
        {
            std::uint64_t predictions = 0;
            std::uint64_t outlierPredictions = 0;
            std::uint64_t predictedCycles = 0;
            std::uint64_t audits = 0;
            std::uint64_t auditFailures = 0;
            std::uint64_t driftingClusters = 0;
            RunningStats err;
        };
        std::map<std::uint8_t, ServiceRoll> services;

        JsonValue acells = JsonValue::array();
        for (const CellResult &r : result.cells) {
            if (r.failed || !needsPredictor(r.cell.mode) ||
                r.accuracy.empty())
                continue;

            JsonValue cell = JsonValue::object();
            cell.add("index",
                     static_cast<std::uint64_t>(r.cell.index));
            cell.add("workload", r.cell.workload);
            cell.add(
                "predictor",
                spec.predictors[r.cell.predictorIndex].label);
            cell.add("pollution",
                     pollutionPolicyName(
                         spec.pollution[r.cell.pollutionIndex]));
            cell.add("l2_bytes", r.cell.l2Bytes);
            cell.add("seed_index", r.cell.seedIndex);
            cell.add("ledger", toJson(r.accuracy));

            if (r.hasBaseline) {
                obs::AccuracyRollup roll =
                    rollupAccuracy(r.accuracy);
                JsonValue oracle = JsonValue::object();
                oracle.add("rel_err", r.signedCycleError);
                oracle.add("abs_err", r.cycleError);
                if (roll.hasEstimate && roll.hasCi) {
                    // The acceptance test of the ledger: does the
                    // oracle-measured end-to-end error fall within
                    // the audit-estimated error's own 95% CI?
                    double delta = std::fabs(r.signedCycleError -
                                             roll.estRelTotalErr);
                    oracle.add("est_delta", delta);
                    oracle.add("within_ci",
                               delta <= roll.estCi95);
                }
                cell.add("oracle", std::move(oracle));
            }
            acells.append(std::move(cell));

            for (const obs::AccuracyEntry &e : r.accuracy.entries) {
                ServiceRoll &s = services[e.service];
                s.predictions += e.predictions;
                s.outlierPredictions += e.outlierPredictions;
                s.predictedCycles += e.predictedCycles;
                s.audits += e.audits;
                s.auditFailures += e.auditFailures;
                if (e.drift)
                    ++s.driftingClusters;
                s.err.merge(e.errStats());
            }
        }
        accuracy.add("cells", std::move(acells));

        JsonValue svc = JsonValue::array();
        for (const auto &[index, s] : services) {
            JsonValue v = JsonValue::object();
            v.add("service", serviceLabel(index));
            v.add("predictions", s.predictions);
            v.add("outlier_predictions", s.outlierPredictions);
            v.add("predicted_cycles", s.predictedCycles);
            v.add("audits", s.audits);
            v.add("audit_failures", s.auditFailures);
            v.add("drifting_clusters", s.driftingClusters);
            if (s.err.count()) {
                JsonValue err = JsonValue::object();
                err.add("n", s.err.count());
                err.add("mean", s.err.mean());
                err.add("stddev", s.err.sampleStddev());
                if (s.err.count() >= 2)
                    err.add("ci95", obs::accuracyCi95(s.err));
                v.add("err", std::move(err));
            }
            svc.append(std::move(v));
        }
        accuracy.add("services", std::move(svc));
        doc.add("accuracy", std::move(accuracy));
    }

    // Stratified-sampling section: per-cell estimates, confidence
    // intervals and detailed-work accounting. Emitted only when the
    // sweep ran sampled cells, so every pre-sampling document keeps
    // its exact byte layout. Built in cell-index order from
    // deterministic per-cell data, so the section inherits the
    // document's thread-count byte-invariance.
    {
        bool any_sample = false;
        for (const CellResult &r : result.cells)
            any_sample |= !r.failed && r.sample.present;
        if (any_sample) {
            JsonValue sample = JsonValue::object();
            sample.add("schema", "ospredict-sample-v1");
            JsonValue params = JsonValue::object();
            params.add("interval_len", spec.sample.intervalLen);
            params.add("strata", spec.sample.strata);
            params.add("rate", spec.sample.rate);
            params.add("allocation",
                       allocationName(spec.sample.allocation));
            sample.add("params", std::move(params));

            JsonValue scells = JsonValue::array();
            for (const CellResult &r : result.cells) {
                if (r.failed || !r.sample.present)
                    continue;
                const CellSampleSection &s = r.sample;
                JsonValue cell = JsonValue::object();
                cell.add("index",
                         static_cast<std::uint64_t>(r.cell.index));
                cell.add("workload", r.cell.workload);
                cell.add("mode", runModeName(r.cell.mode));
                cell.add("seed_index", r.cell.seedIndex);
                addSampleFields(cell, s);
                if (s.hasOracle) {
                    JsonValue oracle = JsonValue::object();
                    oracle.add("abs_err", s.oracleError);
                    oracle.add("within_ci", s.withinCi);
                    cell.add("oracle", std::move(oracle));
                }
                scells.append(std::move(cell));
            }
            sample.add("cells", std::move(scells));
            doc.add("sample", std::move(sample));
        }
    }

    // Canonical store section: only data invariant across thread
    // counts and warm/cold runs (the code fingerprint and the
    // content-addressed cell keys). Hit/miss statistics are
    // volatile and live in the --store-stats document instead.
    if (result.store.present) {
        JsonValue store = JsonValue::object();
        store.add("schema", "ospredict-store-v1");
        store.add("code_fingerprint", result.store.fingerprint);
        JsonValue keys = JsonValue::array();
        for (const std::string &k : result.store.cellKeys)
            keys.append(k);
        store.add("cell_keys", std::move(keys));
        doc.add("store", std::move(store));
    }

    JsonValue summary = JsonValue::object();
    JsonValue variants = JsonValue::array();
    for (const VariantSummary &s : result.summary) {
        JsonValue v = JsonValue::object();
        v.add("predictor", s.label);
        v.add("cells", s.cells);
        v.add("mean_cycle_error", s.meanCycleError);
        v.add("worst_cycle_error", s.worstCycleError);
        v.add("mean_coverage", s.meanCoverage);
        v.add("mean_est_speedup_r133", s.meanEstSpeedupR133);
        variants.append(std::move(v));
    }
    summary.add("predictors", std::move(variants));
    JsonValue failed = JsonValue::array();
    for (const CellResult &r : result.cells) {
        if (r.failed)
            failed.append(static_cast<std::uint64_t>(r.cell.index));
    }
    summary.add("failed_cells", std::move(failed));
    doc.add("summary", std::move(summary));

    if (options.includeTiming) {
        JsonValue timing = JsonValue::object();
        timing.add("threads", result.threads);
        timing.add("wall_s", result.wallSeconds);
        doc.add("timing", std::move(timing));
    }
    return doc;
}

namespace
{

/** One warn() per serialized document when any cell's event ring
 *  overflowed — a truncated trace must not be silent. */
void
warnDroppedEvents(const SweepResult &result, const char *what)
{
    std::uint64_t rings = 0;
    std::uint64_t dropped = 0;
    for (const CellResult &r : result.cells) {
        if (r.traceInfo.dropped == 0)
            continue;
        ++rings;
        dropped += r.traceInfo.dropped;
    }
    obs::warnIfDropped(what, rings, dropped);
}

/** A report row's workload column: sampled-accel rows carry their
 *  mode so they stay apart from their Accelerated twins. */
std::string
reportLabel(const SweepCell &cell)
{
    if (cell.mode == RunMode::Accelerated)
        return cell.workload;
    return cell.workload + "/" + runModeName(cell.mode);
}

} // namespace

void
writeResultsJson(std::ostream &os, const SweepResult &result,
                 const JsonOptions &options)
{
    warnDroppedEvents(result, "results document");
    sweepToJson(result, options).write(os, 2);
    os << "\n";
}

void
writeChromeTrace(std::ostream &os, const SweepResult &result)
{
    warnDroppedEvents(result, "chrome trace");
    JsonValue doc = JsonValue::object();
    JsonValue events = JsonValue::array();
    // chrome://tracing "JSON Array Format" events. Interval-shaped
    // events (service detailed/predicted) become complete ("X")
    // slices whose ts is the retired-instruction count and dur the
    // interval's cycles; everything else becomes an instant ("i")
    // event. One process per sweep cell, one thread per service
    // type.
    for (const CellResult &r : result.cells) {
        if (r.failed)
            continue;
        auto pid = static_cast<std::uint64_t>(r.cell.index);

        JsonValue meta = JsonValue::object();
        meta.add("name", "process_name");
        meta.add("ph", "M");
        meta.add("pid", pid);
        JsonValue margs = JsonValue::object();
        margs.add("name",
                  std::string(r.cell.workload) + "/" +
                      runModeName(r.cell.mode) + "/seed" +
                      std::to_string(r.cell.seedIndex));
        meta.add("args", std::move(margs));
        events.append(std::move(meta));

        for (const obs::TraceEvent &ev : r.trace) {
            JsonValue e = JsonValue::object();
            e.add("name", obs::traceEventKindName(ev.kind));
            e.add("pid", pid);
            e.add("tid",
                  static_cast<std::uint64_t>(
                      ev.service == obs::traceNoService
                          ? numServiceTypes
                          : ev.service));
            e.add("ts", ev.tick);
            bool slice =
                ev.kind == obs::TraceEventKind::ServiceDetailed ||
                ev.kind == obs::TraceEventKind::ServicePredicted;
            if (slice) {
                e.add("ph", "X");
                e.add("dur", ev.b);
            } else {
                e.add("ph", "i");
                e.add("s", "t");
            }
            JsonValue args = JsonValue::object();
            args.add("a", ev.a);
            args.add("b", ev.b);
            if (ev.service != obs::traceNoService)
                args.add("service",
                         serviceName(static_cast<ServiceType>(
                             ev.service)));
            e.add("args", std::move(args));
            events.append(std::move(e));
        }
    }

    doc.add("traceEvents", std::move(events));
    doc.add("displayTimeUnit", "ns");
    JsonValue other = JsonValue::object();
    other.add("clock", "retired-instructions");
    other.add("sweep", result.spec.name);
    doc.add("otherData", std::move(other));
    doc.write(os, 2);
    os << "\n";
}

void
writeAccuracyReport(std::ostream &os, const SweepResult &result)
{
    const SweepSpec &spec = result.spec;
    os << "accuracy report: sweep " << spec.name
       << (spec.smoke ? " [smoke]" : "") << ", base seed "
       << spec.baseSeed << "\n\n";

    // Per-cell rollup: the live accuracy estimate next to the
    // offline oracle where a Full baseline exists.
    TablePrinter cells({"workload", "predictor", "l2KB", "seed",
                        "preds", "audits", "fail", "audit_err",
                        "ci95", "est_err", "oracle_err", "in_ci",
                        "drift"});

    struct BudgetRow
    {
        double absContribution = 0.0;
        obs::AccuracyEntry entry;
        const CellResult *cell = nullptr;
    };
    std::vector<BudgetRow> budget;

    for (const CellResult &r : result.cells) {
        if (r.failed || !needsPredictor(r.cell.mode) ||
            r.accuracy.empty())
            continue;
        obs::AccuracyRollup roll = rollupAccuracy(r.accuracy);

        std::string in_ci = "-";
        std::string oracle_err = "-";
        if (r.hasBaseline) {
            oracle_err = TablePrinter::pct(r.signedCycleError, 2);
            if (roll.hasEstimate && roll.hasCi) {
                double delta = std::fabs(r.signedCycleError -
                                         roll.estRelTotalErr);
                in_ci = delta <= roll.estCi95 ? "yes" : "NO";
            }
        }
        cells.addRow(
            {reportLabel(r.cell),
             spec.predictors[r.cell.predictorIndex].label,
             std::to_string(r.cell.l2Bytes / 1024),
             std::to_string(r.cell.seedIndex),
             std::to_string(roll.predictions),
             std::to_string(roll.audits),
             std::to_string(roll.auditFailures),
             roll.err.count()
                 ? TablePrinter::pct(roll.err.mean(), 2)
                 : "-",
             roll.hasCi ? TablePrinter::pct(roll.ci95, 2) : "-",
             roll.hasEstimate
                 ? TablePrinter::pct(roll.estRelTotalErr, 2)
                 : "-",
             oracle_err, in_ci,
             std::to_string(roll.driftingClusters)});

        for (const obs::AccuracyEntry &e : r.accuracy.entries) {
            BudgetRow row;
            row.absContribution =
                e.errCount
                    ? std::fabs(
                          e.errMean *
                          static_cast<double>(e.predictedCycles))
                    : 0.0;
            row.entry = e;
            row.cell = &r;
            budget.push_back(row);
        }
    }

    if (cells.numRows() == 0) {
        os << "no accelerated cell recorded predictions (no audit "
              "data to report).\n";
        return;
    }
    cells.print(os);
    os << "\n";

    // The error budget: which (workload, service, cluster) slices
    // the end-to-end error decomposes into, largest first.
    std::sort(budget.begin(), budget.end(),
              [](const BudgetRow &a, const BudgetRow &b) {
                  if (a.absContribution != b.absContribution)
                      return a.absContribution > b.absContribution;
                  if (a.cell->cell.index != b.cell->cell.index)
                      return a.cell->cell.index < b.cell->cell.index;
                  if (a.entry.service != b.entry.service)
                      return a.entry.service < b.entry.service;
                  return a.entry.cluster < b.entry.cluster;
              });

    os << "error budget (largest contributors first; contrib = "
          "mean_err x predicted share of the cell's cycles):\n";
    TablePrinter table({"workload", "service", "cluster", "preds",
                        "outl", "audits", "fail", "err_mean",
                        "ci95", "contrib", "drift"});
    for (const BudgetRow &row : budget) {
        const obs::AccuracyEntry &e = row.entry;
        std::string contrib = "-";
        if (e.errCount && row.cell->accuracy.totalCycles) {
            contrib = TablePrinter::pct(
                e.errMean *
                    static_cast<double>(e.predictedCycles) /
                    static_cast<double>(
                        row.cell->accuracy.totalCycles),
                3);
        }
        table.addRow(
            {reportLabel(row.cell->cell), serviceLabel(e.service),
             e.cluster == obs::accuracyNoCluster
                 ? "-"
                 : std::to_string(e.cluster),
             std::to_string(e.predictions),
             std::to_string(e.outlierPredictions),
             std::to_string(e.audits),
             std::to_string(e.auditFailures),
             e.errCount ? TablePrinter::pct(e.errMean, 2) : "-",
             e.hasCi ? TablePrinter::pct(e.ci95, 2) : "-", contrib,
             e.drift ? "YES" : "-"});
    }
    table.print(os);
}

} // namespace osp
