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
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "bench_json.hh"
#include "common.hh"
#include "driver/cell_cache.hh"
#include "driver/claim_executor.hh"
#include "driver/experiments.hh"
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
    bool worker = false;
    bool assemble = false;
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
         "('-' for stdout)",
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
         "crash-test seam: SIGKILL after the first claim",
         setTrue(w.killAfterFirstClaim)},
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
          "--incremental, --store-stats, --plt, --store-wait,\n"
          "--worker and --assemble require --store.\n"
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
 * --worker: open the store in shared mode, run the claim loop, and
 * optionally dump the per-worker stats document.
 */
int
runWorkerProcess(const SweepSpec &spec, const Options &o)
{
    WorkerOptions wopts = o.wopts;
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

        if (!o.storeStatsPath.empty()) {
            JsonValue doc = cache.statsToJson();
            doc.add("worker",
                    workerStatsToJson(stats, wopts.owner));
            if (!writeOutput(o.storeStatsPath, [&](std::ostream &os) {
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
         o.worker || o.assemble)) {
        std::cerr << "sweep: missing --store\n";
        return usage(2, flags);
    }
    if (o.worker && o.assemble) {
        std::cerr << "sweep: --worker and --assemble are mutually "
                     "exclusive\n";
        return usage(2, flags);
    }

    SweepSpec spec = makeNamedSweep(o.name, bench::smokeFactor(),
                                    bench::smokeMode());
    spec.baseSeed = o.seed;
    // Applied before any execution path, so --worker and assembly
    // (including cell identity hashing) see the same backend,
    // sampled modes and knobs.
    setSweepBackend(spec, o.backend);
    if (o.sample.enabled)
        applySweepSampling(spec, o.sample);

    if (o.worker)
        return runWorkerProcess(spec, o);
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

    JsonOptions jopts;
    jopts.includeTiming = o.timing;
    if (!writeOutput(o.outPath, [&](std::ostream &os) {
            writeResultsJson(os, result, jopts);
        }))
        return 1;

    if (!o.tracePath.empty() &&
        !writeOutput(o.tracePath, [&](std::ostream &os) {
            writeChromeTrace(os, result);
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
        // component rates. An explicit --threads N tags the name
        // (sweep_<name>_threads<N>_wall_seconds), so runs of one
        // sweep at several thread counts coexist in one document;
        // the default thread count, one per core, stays untagged so
        // no metric name depends on the host.
        std::string tag =
            o.threads > 0 ? "_threads" + std::to_string(o.threads)
                          : std::string();
        if (!bench::mergeBenchJson(
                o.benchJsonPath, spec.smoke,
                {{"sweep_" + spec.name + tag + "_wall_seconds",
                  result.wallSeconds, "s"}}))
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
