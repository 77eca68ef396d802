/**
 * @file
 * `sweep`: run any named experiment sweep through the parallel
 * runner and write machine-readable results.
 *
 *   sweep fig08 --threads 8 --out results.json
 *   sweep table2 --smoke --no-timing --out canonical.json
 *   sweep --list
 *
 * The emitted document follows the "ospredict-sweep-v1" schema
 * (src/driver/sweep.hh). With --no-timing the bytes are identical
 * for any --threads value at the same seed — CI runs the smoke
 * sweep at 1 and N threads and diffs the two files.
 *
 * Distributed execution over a shared --store (the claim/lease
 * protocol of driver/claim_executor.hh):
 *
 *   sweep table2 --store s.db --jobs 3 --out results.json
 *       fork 3 local worker processes, wait for the fleet, then
 *       assemble — one command, same bytes as --threads runs.
 *   sweep table2 --store s.db --worker --owner w1
 *       one claim-loop worker; run any number of these on the same
 *       store, from any mix of terminals on one host (flock(2)
 *       arbitration is host-local — network filesystems are not
 *       supported; see EXPERIMENTS.md "Distributed sweeps").
 *   sweep table2 --store s.db --assemble --out results.json
 *       replay every cached cell into the final document (cells no
 *       worker finished are executed locally; cells that exhausted
 *       their retries are marked failed from the claim table).
 *
 * Every flag is one row of flagTable(): the row both parses the flag
 * and documents it in --help.
 */

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bench_json.hh"
#include "common.hh"
#include "driver/cell_cache.hh"
#include "driver/claim_executor.hh"
#include "driver/experiments.hh"
#include "driver/fleet.hh"
#include "driver/sweep.hh"
#include "store/plt_archive.hh"
#include "util/hash.hh"

#include "osp_code_fingerprint.hh"

namespace
{

using namespace osp;

/** Everything the command line sets. */
struct Options
{
    std::string name;
    std::string outPath = "results.json";
    std::string tracePath;
    std::string accuracyPath;
    std::string benchJsonPath;
    std::string storePath;
    std::string storeStatsPath;
    std::string fingerprint = OSP_CODE_FINGERPRINT;
    PredictorBackendKind backend = PredictorBackendKind::Plt;
    SampleParams sample;
    bool incremental = false;
    bool pltSave = false;
    bool pltWarm = false;
    std::uint64_t seed = experimentSeed;
    unsigned threads = 0;
    bool timing = true;
    unsigned jobs = 0;
    bool worker = false;
    bool assemble = false;
    bool monitor = false;
    long monitorIntervalMs = 500;
    std::uint64_t monitorMax = 0;
    std::string fleetReportPath;
    std::string fleetPromPath;
    long storeWaitMs = 0;
    bool list = false;
    bool help = false;
    WorkerOptions wopts;

    /** The per-cell event-ring size: --trace turns tracing on. */
    std::size_t
    traceCapacity() const
    {
        return tracePath.empty() ? 0 : 4096;
    }
};

/** Applies one flag given its value (nullptr for a flag without
 *  one); false rejects the value. */
using Handler = std::function<bool(const char *)>;

/** One command-line flag: parsed by @c handle, documented by the
 *  rest of the row. */
struct Flag
{
    const char *name;
    /** Placeholder of the flag's value in --help; nullptr when the
     *  flag takes no value. */
    const char *value;
    std::string help;
    Handler handle;
};

Handler
setTrue(bool &field)
{
    return [&field](const char *) {
        field = true;
        return true;
    };
}

Handler
setText(std::string &field)
{
    return [&field](const char *v) {
        field = v;
        return true;
    };
}

/** Accepts a whole non-negative decimal that fits @p field: no
 *  sign, no trailing characters. */
template <typename T>
Handler
setNumber(T &field)
{
    return [&field](const char *v) {
        std::uint64_t n = 0;
        const char *end = v + std::strlen(v);
        auto [ptr, ec] = std::from_chars(v, end, n);
        if (ec != std::errc() || ptr != end ||
            n > static_cast<std::uint64_t>(
                    std::numeric_limits<T>::max()))
            return false;
        field = static_cast<T>(n);
        return true;
    };
}

/** Parse "intervals=N,strata=K,rate=R[,alloc=A]" (any subset, any
 *  order; unset knobs keep their defaults). */
bool
parseSampleSpec(const std::string &text, SampleParams &out)
{
    std::istringstream items(text);
    for (std::string item; std::getline(items, item, ',');) {
        std::size_t eq = item.find('=');
        std::string key = item.substr(0, eq);
        const char *val =
            eq == std::string::npos ? "" : item.c_str() + eq + 1;
        char *end = nullptr;
        bool ok = false;
        if (key == "intervals") {
            ok = setNumber(out.intervalLen)(val) && out.intervalLen > 0;
        } else if (key == "strata") {
            ok = setNumber(out.strata)(val) && out.strata > 0;
        } else if (key == "rate") {
            out.rate = std::strtod(val, &end);
            ok = *val && !*end && out.rate > 0.0 && out.rate <= 1.0;
        } else if (key == "alloc") {
            for (auto a : {StratifyParams::Allocation::Proportional,
                           StratifyParams::Allocation::Neyman}) {
                if (std::strcmp(val, allocationName(a)) == 0) {
                    out.allocation = a;
                    ok = true;
                }
            }
        }
        if (!ok)
            return false;
    }
    out.enabled = true;
    return true;
}

std::vector<Flag>
flagTable(Options &o)
{
    WorkerOptions &w = o.wopts;
    return {
        {"--list", nullptr, "print the named sweeps and exit",
         setTrue(o.list)},
        {"--help", nullptr, "print this help and exit",
         setTrue(o.help)},
        {"-h", nullptr, "same as --help", setTrue(o.help)},
        {"--threads", "N", "worker threads (default: one per core)",
         setNumber(o.threads)},
        {"--out", "PATH",
         "results JSON (default results.json; '-' for stdout)",
         setText(o.outPath)},
        {"--seed", "S",
         "base seed (default " + std::to_string(experimentSeed) + ")",
         setNumber(o.seed)},
        // Applied by bench::init() before parsing.
        {"--smoke", nullptr,
         "shrink work volume ~20x (also: OSPREDICT_SMOKE=1)",
         [](const char *) { return true; }},
        {"--no-timing", nullptr,
         "omit wall-clock fields (canonical, thread-count-invariant "
         "bytes)",
         [&o](const char *) {
             o.timing = false;
             return true;
         }},
        {"--backend", "{plt,learned}",
         "prediction backend of every predictor variant (default "
         "plt, the paper's clustering; learned = online "
         "feature-vector model); part of cell identity",
         [&o](const char *v) {
             return predictorBackendFromName(v, o.backend);
         }},
        {"--sample", "intervals=N,strata=K,rate=R[,alloc=A]",
         "stratified interval sampling: adds a sampled cell per Full "
         "one and a sampled-accel cell per Accelerated one (N = "
         "interval length in app instructions, K = strata, R = "
         "sampled fraction in (0,1], A = proportional|neyman); part "
         "of cell identity",
         [&o](const char *v) { return parseSampleSpec(v, o.sample); }},
        {"--trace", "PATH",
         "per-cell event tracing, dumped as chrome://tracing JSON "
         "('-' for stdout); with --jobs/--assemble, one more lane "
         "per worker pid",
         setText(o.tracePath)},
        {"--accuracy-report", "PATH",
         "human-readable prediction-accuracy and error-budget tables "
         "('-' for stdout)",
         setText(o.accuracyPath)},
        {"--bench-json", "PATH",
         "merge this sweep's wall-clock into an ospredict-bench-v1 "
         "document (see tools/check_perf_baseline.py)",
         setText(o.benchJsonPath)},
        {"--log-level", "{silent,warn,inform}",
         "global verbosity (default inform)",
         [](const char *v) {
             std::string level = v;
             if (level == "silent")
                 setLogLevel(LogLevel::Silent);
             else if (level == "warn")
                 setLogLevel(LogLevel::Warn);
             else if (level == "inform")
                 setLogLevel(LogLevel::Inform);
             else
                 return false;
             return true;
         }},
        {"--store", "PATH",
         "persistent store recording every executed cell under its "
         "content address (spec, seed, code fingerprint)",
         setText(o.storePath)},
        {"--incremental", nullptr,
         "reuse cells cached in --store (byte-identical results)",
         setTrue(o.incremental)},
        {"--store-stats", "PATH",
         "volatile cache/store statistics ('-' for stdout)",
         setText(o.storeStatsPath)},
        {"--plt", "{save,warm,warm,save}",
         "archive learned PLT profiles into the store (save) and/or "
         "warm-start predictors from them (warm; changes results and "
         "cell identity)",
         [&o](const char *v) {
             std::string m = v;
             bool both = m == "warm,save" || m == "save,warm";
             o.pltSave = both || m == "save";
             o.pltWarm = both || m == "warm";
             return o.pltSave || o.pltWarm;
         }},
        {"--fingerprint", "STR",
         "override the built-in code fingerprint (testing)",
         setText(o.fingerprint)},
        {"--store-wait", "MS",
         "wait up to MS ms for another writer to release the store",
         setNumber(o.storeWaitMs)},
        {"--jobs", "N",
         "fork N worker processes over the shared store, then "
         "assemble (same bytes as a single-process run)",
         [&o](const char *v) {
             return setNumber(o.jobs)(v) && o.jobs > 0;
         }},
        {"--worker", nullptr,
         "run one claim-loop worker and exit (no results document)",
         setTrue(o.worker)},
        {"--assemble", nullptr,
         "build the results document from cached cells and the "
         "claim table (implies --incremental)",
         setTrue(o.assemble)},
        {"--owner", "ID",
         "worker id in claim records (default pid<pid>)",
         setText(w.owner)},
        {"--lease-ticks", "N",
         "heartbeats before an idle claim is reclaimable (default 64)",
         setNumber(w.leaseTicks)},
        {"--max-retries", "N",
         "attempts before a cell is marked failed (default 3)",
         setNumber(w.maxRetries)},
        {"--poll-ms", "MS",
         "initial idle-poll sleep while other workers hold leases "
         "(default 50)",
         setNumber(w.pollMs)},
        {"--refresh-ms", "MS",
         "lease-refresh period while a cell runs (default 200; 0 "
         "disables)",
         setNumber(w.refreshMs)},
        {"--kill-after-claim", nullptr,
         "crash-test seam: SIGKILL after the first claim (--jobs: "
         "of the first worker)",
         setTrue(w.killAfterFirstClaim)},
        {"--monitor", nullptr,
         "render live fleet status until the sweep completes (pass "
         "the fleet's --trace/--plt/--fingerprint)",
         setTrue(o.monitor)},
        {"--monitor-interval", "MS", "poll period (default 500)",
         setNumber(o.monitorIntervalMs)},
        {"--monitor-max", "N",
         "stop after N polls (default 0 = until complete)",
         setNumber(o.monitorMax)},
        {"--fleet-report", "PATH",
         "ospredict-fleet-v1 worker-telemetry report ('-' for stdout)",
         setText(o.fleetReportPath)},
        {"--fleet-prom", "PATH",
         "the same view as Prometheus text ('-' for stdout)",
         setText(o.fleetPromPath)},
    };
}

int
usage(int code, const std::vector<Flag> &flags)
{
    constexpr std::size_t indent = 17;
    constexpr std::size_t width = 72;
    std::ostream &os = code ? std::cerr : std::cout;
    os << "usage: sweep <name> [options]\n"
          "       sweep --list\n"
          "\n"
          "--incremental, --store-stats, --plt, --store-wait, --jobs,\n"
          "--worker, --assemble, --monitor, --fleet-report and\n"
          "--fleet-prom require --store.\n"
          "\n"
          "options:\n";
    for (const Flag &f : flags) {
        std::string line = std::string("  ") + f.name +
                           (f.value ? std::string(" ") + f.value : "");
        if (line.size() >= indent) {
            os << line << "\n";
            line.clear();
        }
        std::istringstream words(f.help);
        for (std::string word; words >> word;) {
            if (line.size() + 1 + word.size() > width) {
                os << line << "\n";
                line.clear();
            }
            line.resize(std::max(line.size() + 1, indent), ' ');
            line += word;
        }
        os << line << "\n";
    }
    return code;
}

/** Write one output document: to stdout for "-", else to @p path.
 *  False (with a message) when the file cannot be opened. */
bool
writeOutput(const std::string &path,
            const std::function<void(std::ostream &)> &fn)
{
    if (path == "-") {
        fn(std::cout);
        return true;
    }
    std::ofstream os(path);
    if (!os) {
        std::cerr << "sweep: cannot write " << path << "\n";
        return false;
    }
    fn(os);
    return true;
}

/**
 * The archived PLT profile of every workload of @p spec that has
 * one. Each profile changes its cells' simulated results, so its
 * hash is folded into @p cache's cell identities.
 */
std::map<std::string, std::string>
loadWarmProfiles(store::PageStore &store, const SweepSpec &spec,
                 CellCache &cache)
{
    std::map<std::string, std::string> profiles;
    store::PltArchive archive(store);
    for (const std::string &w : spec.workloads) {
        std::optional<std::string> profile = archive.load(w);
        if (!profile)
            continue;
        cache.setWarmProfileHash(w, stableHash64(*profile));
        profiles.emplace(w, std::move(*profile));
    }
    return profiles;
}

/**
 * The body of one worker process (--worker, and each --jobs
 * child): open the store in shared mode, run the claim loop, and
 * optionally dump the per-worker stats document.
 */
int
runWorkerProcess(const SweepSpec &spec, const Options &o,
                 WorkerOptions wopts, const std::string &stats_path)
{
    try {
        store::StoreOptions sopts;
        sopts.shared = true;
        std::unique_ptr<store::PageStore> pstore =
            store::PageStore::open(o.storePath, sopts);
        CellCache cache(*pstore, o.fingerprint);
        std::map<std::string, std::string> warm_profiles;
        if (o.pltWarm)
            warm_profiles = loadWarmProfiles(*pstore, spec, cache);
        wopts.warmProfiles = &warm_profiles;
        wopts.traceCapacity = o.traceCapacity();

        WorkerStats stats = runSweepWorker(spec, cache, wopts);

        if (!stats_path.empty()) {
            JsonValue doc = cache.statsToJson();
            doc.add("worker",
                    workerStatsToJson(stats, wopts.owner));
            if (!writeOutput(stats_path, [&](std::ostream &os) {
                    doc.write(os, 2);
                    os << "\n";
                }))
                return 1;
        }
        std::cerr << "sweep worker " << wopts.owner << ": claimed "
                  << stats.claimed << ", committed "
                  << stats.committed << ", reclaimed "
                  << stats.reclaimed << ", lost "
                  << stats.lostLeases << "\n";
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "sweep worker " << wopts.owner << ": "
                  << e.what() << "\n";
        return 1;
    }
}

/** --monitor: render live fleet status until the sweep completes
 *  (or --monitor-max polls). */
int
runMonitor(const SweepSpec &spec, const Options &o)
{
    // Each poll re-opens the store read-only: the open picks the
    // newest valid meta page atomically, so every rendering is one
    // crash-consistent snapshot of a live fleet, and the monitor
    // never contends for the transaction gate.
    for (std::uint64_t polls = 1;; ++polls) {
        bool complete = false;
        try {
            store::StoreOptions sopts;
            sopts.readOnly = true;
            std::unique_ptr<store::PageStore> ps =
                store::PageStore::open(o.storePath, sopts);
            CellCache mcache(*ps, o.fingerprint);
            if (o.pltWarm)
                loadWarmProfiles(*ps, spec, mcache);
            FleetView view =
                readFleetView(*ps, o.fingerprint,
                              mcache.cellKeys(spec, o.traceCapacity()));
            view.sweep = spec.name;
            renderFleetStatus(std::cout, view, o.wopts.leaseTicks);
            warnFleetDrops(view);
            complete = view.cells.outstanding() == 0;
        } catch (const std::exception &e) {
            std::cout << "monitor: " << e.what() << " (waiting)\n";
        }
        std::cout.flush();
        if (complete || (o.monitorMax && polls >= o.monitorMax))
            return 0;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(o.monitorIntervalMs));
    }
}

/**
 * --jobs: fork the worker fleet and wait for it. Returns the fleet's
 * wall-clock seconds, or nullopt when a fork failed.
 */
std::optional<double>
runFleet(const SweepSpec &spec, const Options &o)
{
    // Fork the fleet before opening the store: flock(2) state is
    // shared across fork, so the parent must not hold any handle
    // the children would inherit. Each child opens the store itself
    // in shared mode.
    auto fleet_start = std::chrono::steady_clock::now();
    std::vector<pid_t> pids;
    for (unsigned k = 0; k < o.jobs; ++k) {
        pid_t pid = ::fork();
        if (pid < 0) {
            std::cerr << "sweep: fork failed\n";
            return std::nullopt;
        }
        if (pid == 0) {
            WorkerOptions w = o.wopts;
            w.owner = o.wopts.owner + "-w" + std::to_string(k + 1);
            // --kill-after-claim elects the first worker as the
            // crash victim; the survivors reclaim its lease and CI
            // asserts the victim's published fleet snapshot
            // outlived it.
            w.killAfterFirstClaim =
                o.wopts.killAfterFirstClaim && k == 0;
            std::string stats_path =
                o.storeStatsPath.empty() || o.storeStatsPath == "-"
                    ? std::string()
                    : o.storeStatsPath + ".w" +
                          std::to_string(k + 1);
            ::_exit(runWorkerProcess(spec, o, w, stats_path));
        }
        pids.push_back(pid);
    }
    unsigned failed_workers = 0;
    for (pid_t pid : pids) {
        int status = 0;
        if (::waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0)
            ++failed_workers;
    }
    if (failed_workers > 0) {
        // Assembly recovers whatever the fleet did finish (and
        // executes the rest locally), so a dead worker is a
        // warning, not an error.
        std::cerr << "sweep: " << failed_workers << " of " << o.jobs
                  << " worker(s) failed; assembling from what was "
                     "committed\n";
    }
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - fleet_start)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    osp::bench::init(argc, argv);

    Options o;
    o.wopts.owner = "pid" + std::to_string(::getpid());
    const std::vector<Flag> flags = flagTable(o);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto flag = std::find_if(
            flags.begin(), flags.end(),
            [&](const Flag &f) { return arg == f.name; });
        if (flag == flags.end()) {
            if (!arg.empty() && arg[0] != '-' && o.name.empty()) {
                o.name = arg;
                continue;
            }
            std::cerr << "sweep: bad argument '" << arg << "'\n";
            return usage(2, flags);
        }
        const char *value = nullptr;
        if (flag->value) {
            if (i + 1 == argc) {
                std::cerr << "sweep: " << arg << " wants a value\n";
                return usage(2, flags);
            }
            value = argv[++i];
        }
        if (!flag->handle(value)) {
            std::cerr << "sweep: bad value '" << value << "' for "
                      << arg << "\n";
            return usage(2, flags);
        }
    }
    if (o.help)
        return usage(0, flags);
    if (o.list) {
        for (const auto &n : namedSweeps())
            std::cout << n << "\n";
        return 0;
    }
    if (o.name.empty())
        return usage(2, flags);
    const auto &names = namedSweeps();
    if (std::find(names.begin(), names.end(), o.name) ==
        names.end()) {
        std::cerr << "sweep: unknown sweep '" << o.name
                  << "' (try --list)\n";
        return 2;
    }

    if (o.storePath.empty() &&
        (o.incremental || o.pltSave || o.pltWarm ||
         !o.storeStatsPath.empty() || o.storeWaitMs > 0 ||
         o.jobs > 0 || o.worker || o.assemble || o.monitor ||
         !o.fleetReportPath.empty() || !o.fleetPromPath.empty())) {
        std::cerr << "sweep: missing --store\n";
        return usage(2, flags);
    }
    if ((o.jobs > 0) + o.worker + o.assemble + o.monitor > 1) {
        std::cerr << "sweep: --jobs, --worker, --assemble and "
                     "--monitor are mutually exclusive\n";
        return usage(2, flags);
    }

    SweepSpec spec = makeNamedSweep(o.name, bench::smokeFactor(),
                                    bench::smokeMode());
    spec.baseSeed = o.seed;
    // Applied before any fork: --jobs workers inherit the spec, so
    // fleet, --worker and assembly all simulate the same backend.
    setSweepBackend(spec, o.backend);
    // Likewise pre-fork, so every execution path (including cell
    // identity hashing) sees the same sampled modes and knobs.
    if (o.sample.enabled)
        applySweepSampling(spec, o.sample);

    if (o.worker)
        return runWorkerProcess(spec, o, o.wopts, o.storeStatsPath);
    if (o.monitor)
        return runMonitor(spec, o);

    double fleet_seconds = 0.0;
    if (o.jobs > 0) {
        std::optional<double> secs = runFleet(spec, o);
        if (!secs)
            return 1;
        fleet_seconds = *secs;
        // The remainder of main() is the assembly pass.
        o.assemble = true;
    }
    if (o.assemble)
        o.incremental = true;

    RunnerOptions opts;
    opts.threads = o.threads;
    opts.traceCapacity = o.traceCapacity();
    opts.claimAware = o.assemble;

    std::unique_ptr<store::PageStore> pstore;
    std::unique_ptr<CellCache> cache;
    std::map<std::string, std::string> warm_profiles;
    if (!o.storePath.empty()) {
        try {
            store::StoreOptions sopts;
            sopts.lockWaitMs = o.storeWaitMs;
            pstore = store::PageStore::open(o.storePath, sopts);
        } catch (const std::exception &e) {
            std::cerr << "sweep: " << e.what() << "\n";
            return 1;
        }
        cache = std::make_unique<CellCache>(*pstore, o.fingerprint);
        if (o.pltWarm)
            warm_profiles = loadWarmProfiles(*pstore, spec, *cache);
        opts.cache = cache.get();
        opts.incremental = o.incremental;
        opts.warmProfiles = &warm_profiles;
    }

    SweepResult result;
    try {
        result = runSweep(spec, opts);
    } catch (const std::exception &e) {
        std::cerr << "sweep: " << e.what() << "\n";
        return 1;
    }
    result.workerProcesses = o.jobs;

    JsonOptions jopts;
    jopts.includeTiming = o.timing;
    if (!writeOutput(o.outPath, [&](std::ostream &os) {
            writeResultsJson(os, result, jopts);
        }))
        return 1;

    // Aggregate the fleet keyspace once for every consumer below:
    // the merged trace, --fleet-report and --fleet-prom all read
    // the same view, and dropped-trace warnings are re-issued here
    // with per-owner attribution (the in-process warning died with
    // the worker).
    std::optional<FleetView> fleet_view;
    if (!o.storePath.empty() &&
        (o.assemble || !o.fleetReportPath.empty() ||
         !o.fleetPromPath.empty())) {
        fleet_view.emplace(readFleetView(
            *pstore, o.fingerprint,
            cache->cellKeys(spec, opts.traceCapacity)));
        fleet_view->sweep = spec.name;
        warnFleetDrops(*fleet_view);
    }

    if (!o.tracePath.empty() &&
        !writeOutput(o.tracePath, [&](std::ostream &os) {
            if (fleet_view && !fleet_view->workers.empty())
                writeMergedChromeTrace(os, result, *fleet_view);
            else
                writeChromeTrace(os, result);
        }))
        return 1;
    if (!o.fleetReportPath.empty() &&
        !writeOutput(o.fleetReportPath, [&](std::ostream &os) {
            writeFleetReport(os, *fleet_view);
        }))
        return 1;
    if (!o.fleetPromPath.empty() &&
        !writeOutput(o.fleetPromPath, [&](std::ostream &os) {
            writePrometheusReport(os, *fleet_view);
        }))
        return 1;
    if (!o.accuracyPath.empty() &&
        !writeOutput(o.accuracyPath, [&](std::ostream &os) {
            writeAccuracyReport(os, result);
        }))
        return 1;

    if (!o.benchJsonPath.empty()) {
        // Wall-clock of the whole sweep: the end-to-end hot-path
        // number the perf gate tracks alongside the microbench
        // component rates. A --jobs run reports under jobs-tagged
        // names — the fleet time (fork to last exit) is the
        // multi-process scaling headline — so single- and
        // multi-process rows coexist in one document.
        std::vector<bench::BenchMetric> metrics;
        if (o.jobs > 0) {
            std::string tag =
                "sweep_" + spec.name + "_jobs" + std::to_string(o.jobs);
            metrics.push_back(
                {tag + "_fleet_seconds", fleet_seconds, "s"});
            metrics.push_back(
                {tag + "_wall_seconds", result.wallSeconds, "s"});
        } else {
            metrics.push_back({"sweep_" + spec.name + "_wall_seconds",
                               result.wallSeconds, "s"});
        }
        if (!bench::mergeBenchJson(o.benchJsonPath, spec.smoke,
                                   metrics))
            return 1;
    }

    if (o.pltSave) {
        // Archive one learned profile per workload: the first
        // predicting, non-failed cell in index order (cached cells
        // round-trip their profile, so warm runs re-archive the
        // same bytes).
        store::PltArchive archive(*pstore);
        std::uint64_t archived = 0;
        for (const std::string &w : spec.workloads) {
            for (const CellResult &r : result.cells) {
                if (r.failed || r.cell.workload != w ||
                    r.pltProfile.empty())
                    continue;
                try {
                    archive.save(w, r.pltProfile);
                } catch (const std::exception &e) {
                    std::cerr << "sweep: " << e.what() << "\n";
                    return 1;
                }
                ++archived;
                break;
            }
        }
        std::cerr << "sweep: archived " << archived
                  << " PLT profile(s) -> " << o.storePath << "\n";
    }

    if (!o.storeStatsPath.empty() &&
        !writeOutput(o.storeStatsPath, [&](std::ostream &os) {
            cache->statsToJson().write(os, 2);
            os << "\n";
        }))
        return 1;

    std::cerr << "sweep " << spec.name << ": "
              << result.cells.size() << " cells in "
              << TablePrinter::fmt(result.wallSeconds, 2)
              << " s on " << result.threads << " thread(s)"
              << (spec.smoke ? " [smoke]" : "") << " -> "
              << o.outPath << "\n";
    return 0;
}
