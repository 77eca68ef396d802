/**
 * @file
 * The repository benchmark: host-time speed of predicted and sampled
 * simulation, and of the store that persists and replays cells.
 *
 *   perfbench --workload os-accel|app-sampled|store-replay
 *             --seed N --seconds S --trace 0|1
 *             [--workload-seed W] [--work-dir DIR] [--gap-report PATH]
 *
 * --workload-seed (default 42) seeds the simulated programs, so the
 * accuracy metrics are deterministic; --seed varies the run order of
 * programs and modes. Everything runs in this process on one thread.
 * Absolute host times are reported at a nominal host speed
 * (HostSpeed), so a shared host's slow spells do not move them.
 *
 * With --trace 0 the last stdout line carries every end-to-end
 * metric; with --trace 1 it carries the per-layer metrics of a run
 * that pairs each cell with a wrapped twin (layers.hh). Either way
 * the run checks its outputs and exits 1 when a check fails.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/report.hh"
#include "driver/cell_cache.hh"
#include "driver/cell_io.hh"
#include "driver/claim_executor.hh"
#include "driver/experiments.hh"
#include "driver/sweep.hh"
#include "layers.hh"
#include "store/page_store.hh"
#include "util/logging.hh"
#include "workload/registry.hh"

namespace
{

using namespace osp;
using perfbench::LayerProbe;
using perfbench::nowSeconds;

// ---------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------

/** Work-volume scales (makeMachine units). os-accel's keeps every
 *  Accelerated cell above kMinCoverage; app-sampled's gives
 *  second-long SPEC cells; store-replay's cells only have to exist,
 *  since replay simulates nothing. */
constexpr double kOsScale = 0.25;
constexpr double kAppScale = 1.0;
constexpr double kReplayScale = 0.025;
/** Floor on os-accel's prediction coverage. table2's 60% needs a
 *  work volume whose passes do not fit the run; at kOsScale the
 *  programs cover 30-60% of their OS invocations. */
constexpr double kMinCoverage = 0.25;
/** Scale of the warm-up cells run during set-up. */
constexpr double kWarmScale = 0.05;
/** Set-up repetitions; setup_s is their median. */
constexpr int kSetupReps = 5;
/** Assemblies timed per store pass; driver.replay_cells_per_s is the
 *  median over all of them. */
constexpr int kAssemblies = 3;
/** Store passes after each simulated cell of os-accel and
 *  app-sampled, from the second pass on. A store pass holds one
 *  sweep's cells and takes tens of ms, so a median needs many. */
constexpr int kStorePassesPerCell = 2;
/** Host-speed samples taken after each simulated cell and set-up. */
constexpr int kSamplesPerCell = 3;
/** store-replay re-simulates its cells once per this many store
 *  passes, so its simulation metrics sample the whole run. */
constexpr int kReplayStorePasses = 20;

/**
 * A fig13-style spec: the statistical PLT predictor with Footprint
 * pollution and BP warming (the MachineConfig defaults), and
 * stratified sampling at fig13's strata and rate. With @p shrink the
 * learning window and interval length follow the work volume as
 * fig13's scaled runs do, so short runs still reach prediction.
 */
SweepSpec
makeSpec(const std::string &name, std::vector<std::string> programs,
         std::vector<RunMode> modes, double scale, bool shrink,
         std::uint64_t seed)
{
    SweepSpec spec;
    spec.name = name;
    spec.workloads = std::move(programs);
    spec.modes = std::move(modes);
    spec.baseSeed = seed;
    spec.scale = scale;
    double eff = shrink ? scale / experimentAccuracyScale : 1.0;
    PredictorParams pred = experimentPredictor();
    pred.learningWindow = std::max<std::uint32_t>(
        10, static_cast<std::uint32_t>(pred.learningWindow * eff));
    spec.predictors = {{"statistical", pred}};
    spec.sample.enabled = true;
    spec.sample.intervalLen = std::max<InstCount>(
        200, static_cast<InstCount>(experimentSampleIntervalLen * eff));
    spec.sample.strata = experimentSampleStrata;
    spec.sample.rate = experimentSampleRate;
    return spec;
}

/**
 * A workload is one sweep. Its cells are simulated, and every store
 * pass commits and assembles exactly those cells, as `sweep --store`
 * would: the store holds one sweep, like every store the repository
 * builds.
 */
struct Workload
{
    std::string name;
    SweepSpec spec;
    /** store-replay: its cells are simulated during set-up, and the
     *  measured loop is store passes. */
    bool replay = false;
};

Workload
makeWorkload(const std::string &name, std::uint64_t workload_seed)
{
    Workload w;
    w.name = name;
    if (name == "os-accel") {
        w.spec = makeSpec(name, osIntensiveWorkloads(),
                          {RunMode::Full, RunMode::Accelerated,
                           RunMode::SampledAccel},
                          kOsScale, true, workload_seed);
    } else if (name == "app-sampled") {
        w.spec = makeSpec(name, {"gzip", "swim"},
                          {RunMode::Full, RunMode::Accelerated,
                           RunMode::Sampled, RunMode::SampledAccel},
                          kAppScale, false, workload_seed);
    } else if (name == "store-replay") {
        // fig13's cells (20: the five OS-intensive programs in all
        // four modes), the largest sweep CI commits to a store.
        w.spec = makeSpec(name, osIntensiveWorkloads(),
                          {RunMode::Full, RunMode::Accelerated,
                           RunMode::Sampled, RunMode::SampledAccel},
                          kReplayScale, true, workload_seed);
        w.replay = true;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

// ---------------------------------------------------------------
// Checks
// ---------------------------------------------------------------

struct Checks
{
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    require(bool ok, const std::string &what)
    {
        if (!ok && failures.size() < 50)
            failures.push_back(what);
    }
};

std::string
cellName(const SweepCell &cell)
{
    return cell.workload + "/" + runModeName(cell.mode) + "/s" +
           std::to_string(cell.seedIndex);
}

/**
 * Every cell retired its whole workload: all modes of one program
 * retire the same instructions (the mode-invariant signature), SPEC
 * programs retire at least their measured volume, and prediction
 * covers enough of the OS-intensive programs.
 */
void
checkCells(const Workload &w, const std::vector<CellResult> &cells,
           Checks &checks)
{
    std::map<std::string, const CellResult *> first;
    for (const CellResult &r : cells) {
        checks.require(!r.failed, cellName(r.cell) + " failed: " +
                                      r.error);
        if (r.failed) {
            ++checks.failed;
            continue;
        }
        checks.require(r.totals.totalInsts() > 0,
                       cellName(r.cell) + " retired nothing");
        auto [it, fresh] = first.emplace(r.cell.workload, &r);
        if (!fresh)
            checks.require(
                r.totals.appInsts == it->second->totals.appInsts &&
                    r.totals.osInsts == it->second->totals.osInsts,
                cellName(r.cell) + " retired a different instruction "
                                   "count than " +
                    cellName(it->second->cell));
        const auto &spec = specWorkloads();
        if (std::find(spec.begin(), spec.end(), r.cell.workload) !=
            spec.end())
            checks.require(
                r.totals.appInsts >=
                    perfbench::specMeasureOps(w.spec.scale),
                cellName(r.cell) + " retired fewer app instructions "
                                   "than its measured volume");
        if (w.name == "os-accel" && r.cell.mode != RunMode::Full)
            checks.require(r.totals.coverage() >= kMinCoverage,
                           cellName(r.cell) + " coverage below floor");
        if (isSampledMode(r.cell.mode))
            checks.require(r.sample.present &&
                               r.sample.sampledIntervals > 0,
                           cellName(r.cell) + " sampled nothing");
    }
}

// ---------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** A measured stretch of wall time, [t0, t1] on the monotonic clock. */
struct Span
{
    double t0 = 0.0;
    double t1 = 0.0;

    double wall() const { return t1 - t0; }
};

/** CPU seconds used by this process, all threads. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/** A span from @p t0 to now. */
Span
spanFrom(double t0)
{
    return {t0, nowSeconds()};
}

/**
 * The host's speed over the run, read off a fixed piece of reference
 * work timed between measured spans.
 *
 * On a shared host, neighbours' load slows this process by up to half
 * for seconds to minutes at a time, with no loss of CPU time, so the
 * slowdown cannot be read off the clocks. The reference work slows
 * with it: chained hash-table inserts over a preallocated pool, the
 * cache-missing table walks the simulator's own predictors and
 * caches make. It allocates nothing and calls nothing in src/, so no
 * change to the simulator or its allocator changes its cost.
 *
 * The absolute host times in the end-to-end metrics are a span's time
 * at nominal host speed: scaled by kNominalS over the median reference
 * time of the samples taken within kWindowS of the span, before and
 * after it. They are therefore computed after the last sample.
 */
class HostSpeed
{
  public:
    /** Reference seconds per sample at the tuning host's usual speed.
     *  Only a unit: any constant would do. */
    static constexpr double kNominalS = 0.0023;
    /** Samples this close to a span describe the host during it. */
    static constexpr double kWindowS = 1.0;

    HostSpeed() : buckets_(kBuckets), nodes_(kKeys + 1) { sample(); }

    /** Time the reference work @p n times. */
    void
    sample(int n = 1)
    {
        for (int i = 0; i < n; ++i) {
            double t0 = nowSeconds();
            work();
            double t1 = nowSeconds();
            samples_.push_back({0.5 * (t0 + t1), t1 - t0});
        }
    }

    /** Seconds @p s would have taken at nominal host speed. */
    double
    nominal(const Span &s) const
    {
        std::vector<double> near;
        for (const Sample &x : samples_)
            if (x.at >= s.t0 - kWindowS && x.at <= s.t1 + kWindowS)
                near.push_back(x.seconds);
        if (near.empty())
            throw std::logic_error("no host-speed sample near a span");
        std::sort(near.begin(), near.end());
        std::size_t n = near.size();
        double ref =
            n % 2 ? near[n / 2] : 0.5 * (near[n / 2 - 1] + near[n / 2]);
        return s.wall() * kNominalS / ref;
    }

    std::size_t samples() const { return samples_.size(); }

    /** Median reference seconds over the run. */
    double
    medianSample() const
    {
        std::vector<double> v;
        for (const Sample &x : samples_)
            v.push_back(x.seconds);
        return median(v);
    }

  private:
    struct Sample
    {
        double at;       //!< midpoint, monotonic seconds
        double seconds;  //!< reference time
    };
    struct Node
    {
        std::uint64_t key;
        std::uint64_t value;
        std::uint32_t next;
    };
    static constexpr std::uint32_t kBuckets = 1u << 16;
    static constexpr std::uint32_t kKeys = 50000;
    static constexpr std::uint32_t kInserts = 40000;
    static constexpr int kRounds = 6;

    void
    work()
    {
        for (int round = 0; round < kRounds; ++round) {
            std::fill(buckets_.begin(), buckets_.end(), 0u);
            std::uint32_t used = 0;
            std::uint64_t x = 1 + round;
            for (std::uint32_t k = 0; k < kInserts; ++k) {
                x = x * 6364136223846793005ull + 1442695040888963407ull;
                std::uint64_t key = (x >> 20) % kKeys;
                auto b = static_cast<std::uint32_t>(
                    (key * 0x9E3779B97F4A7C15ull) >> 48);
                std::uint32_t n = buckets_[b];
                while (n && nodes_[n].key != key)
                    n = nodes_[n].next;
                if (!n) {
                    n = ++used;
                    nodes_[n] = {key, 0, buckets_[b]};
                    buckets_[b] = n;
                }
                nodes_[n].value += k;
            }
            sink_ = sink_ + used;
        }
    }

    std::vector<std::uint32_t> buckets_;
    std::vector<Node> nodes_;
    std::vector<Sample> samples_;
    volatile std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------
// The store path: commit with the worker loop, assemble, emit
// ---------------------------------------------------------------

using CellRunner = std::function<CellResult(
    const SweepSpec &, const SweepCell &, std::size_t)>;

struct StorePass
{
    std::uint64_t cells = 0;
    std::uint64_t committed = 0;
    std::uint64_t exhausted = 0;
    Span commit;             //!< runSweepWorker
    double commitCpuS = 0.0; //!< ... its CPU time
    /** Each claim-aware runSweep + emit. */
    std::vector<Span> replays;
    std::uint64_t fileBytes = 0;
    std::uint64_t pageBytes = 0;  //!< allocated pages x page size
    std::string canonical;   //!< timing-free, store section cleared
    SweepResult assembled;
    store::StoreProfile profile;
    // Traced passes only:
    double encodeS = 0.0;
    double decodeS = 0.0;
    double emitS = 0.0;
    double fetchS = 0.0;
    std::uint64_t cellBytes = 0;
};

std::string
canonicalJson(SweepResult result)
{
    result.store = StoreSection{};
    std::ostringstream os;
    JsonOptions jo;
    jo.includeTiming = false;
    writeResultsJson(os, result, jo);
    return os.str();
}

/**
 * Commit every cell of @p spec through the claim loop into a fresh
 * store (@p runner supplies the values, so nothing is simulated),
 * then assemble results.json with a warm claim-aware runSweep.
 */
StorePass
runStorePass(const SweepSpec &spec, const CellRunner &runner,
             const std::filesystem::path &dir, bool traced,
             HostSpeed &host, Checks &checks)
{
    StorePass pass;
    std::filesystem::path path = dir / "cells.store";
    std::filesystem::remove(path);
    store::StoreOptions so;
    so.shared = true;
    std::unique_ptr<store::PageStore> db =
        store::PageStore::open(path.string(), so);
    CellCache cache(*db, "perfbench");

    WorkerOptions wo;
    wo.owner = "perfbench";
    wo.cellRunner = runner;
    double cpu0 = cpuSeconds();
    double t0 = nowSeconds();
    WorkerStats ws = runSweepWorker(spec, cache, wo);
    pass.commit = spanFrom(t0);
    pass.commitCpuS = cpuSeconds() - cpu0;
    host.sample();
    pass.committed = ws.committed;
    pass.exhausted = ws.exhausted;

    std::uint64_t reruns = 0;
    RunnerOptions ro;
    ro.threads = 1;
    ro.cache = &cache;
    ro.incremental = true;
    ro.claimAware = true;
    ro.cellRunner = [&](const SweepSpec &s, const SweepCell &c,
                        std::size_t cap) {
        ++reruns;
        return runner(s, c, cap);
    };
    for (int i = 0; i < kAssemblies; ++i) {
        t0 = nowSeconds();
        pass.assembled = runSweep(spec, ro);
        double t1 = nowSeconds();
        {
            std::ofstream out(dir / "results.json");
            writeResultsJson(out, pass.assembled);
            if (!out)
                throw std::runtime_error("cannot write results.json");
        }
        pass.replays.push_back(spanFrom(t0));
        pass.emitS += pass.replays.back().t1 - t1;
        host.sample();
    }
    pass.cells = pass.assembled.cells.size();
    pass.fileBytes = std::filesystem::file_size(path);
    store::StoreInfo info = db->info();
    pass.pageBytes = info.numPages * info.pageSize;
    pass.profile = db->profile();
    pass.canonical = canonicalJson(pass.assembled);

    checks.attempted += pass.cells;
    checks.failed += pass.exhausted;
    checks.require(pass.committed == pass.cells &&
                       pass.exhausted == 0,
                   "worker loop committed " +
                       std::to_string(pass.committed) + " of " +
                       std::to_string(pass.cells) + " cells");
    checks.require(reruns == 0, "assembly re-ran " +
                                    std::to_string(reruns) +
                                    " committed cells");

    if (traced) {
        std::vector<SweepCell> cells = expandSweep(spec);
        std::vector<std::string> keys;
        for (const SweepCell &c : cells)
            keys.push_back(cache.cellKey(spec, c, 0));
        t0 = nowSeconds();
        for (std::size_t i = 0; i < cells.size(); ++i)
            checks.require(cache.fetch(keys[i], cells[i], true)
                               .has_value(),
                           "fetch missed " + cellName(cells[i]));
        pass.fetchS = nowSeconds() - t0;
        std::vector<std::string> encoded;
        t0 = nowSeconds();
        for (const CellResult &r : pass.assembled.cells)
            encoded.push_back(encodeCellResult(r));
        pass.encodeS = nowSeconds() - t0;
        t0 = nowSeconds();
        for (const std::string &e : encoded)
            checks.require(decodeCellResult(e).has_value(),
                           "decode failed");
        pass.decodeS = nowSeconds() - t0;
        for (const std::string &e : encoded)
            pass.cellBytes += e.size();
    }
    db.reset();
    std::filesystem::remove(path);
    std::filesystem::remove(path.string() + ".lock");
    return pass;
}

/** The canonical document of a direct (store-free) runSweep. */
std::string
directCanonical(const SweepSpec &spec, const CellRunner &runner)
{
    RunnerOptions ro;
    ro.threads = 1;
    ro.cellRunner = runner;
    return canonicalJson(runSweep(spec, ro));
}

// ---------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------

/** Every measured cell's span. The metrics are computed from them
 *  once the run's host-speed samples all exist. */
struct SimSpans
{
    struct Cell
    {
        RunMode mode;
        double insts;
        Span span;
    };
    std::vector<Cell> cells;

    void
    add(const CellResult &r, const Span &span)
    {
        cells.push_back(
            {r.cell.mode, static_cast<double>(r.totals.totalInsts()), span});
    }

    /** Millions of instructions per second over all cells, at nominal
     *  host speed, or in wall time when @p host is null. */
    double
    mips(const HostSpeed *host) const
    {
        double insts = 0.0;
        double seconds = 0.0;
        for (const Cell &c : cells) {
            insts += c.insts;
            seconds += host ? host->nominal(c.span) : c.span.wall();
        }
        return ratio(insts, seconds) / 1e6;
    }

    /** Wall seconds of all @p mode cells. */
    double
    wall(RunMode mode) const
    {
        double sum = 0.0;
        for (const Cell &c : cells)
            if (c.mode == mode)
                sum += c.span.wall();
        return sum;
    }
};

/** Per-store-pass spans; the rate metrics are medians over them. */
struct StoreRates
{
    struct Timed
    {
        double cells;
        Span span;
        double seconds;  //!< the span's wall or CPU time
    };
    std::vector<Timed> commits;  //!< CPU time, without msync waits
    std::vector<Timed> replays;  //!< wall time
    std::vector<double> bytesPerCell;

    void
    add(const StorePass &p)
    {
        double cells = static_cast<double>(p.cells);
        commits.push_back({cells, p.commit, p.commitCpuS});
        for (const Span &s : p.replays)
            replays.push_back({cells, s, s.wall()});
        bytesPerCell.push_back(static_cast<double>(p.pageBytes) / cells);
    }

    /** Median over @p spans of cells per second at nominal host speed. */
    static double
    rate(const std::vector<Timed> &spans, const HostSpeed &host)
    {
        std::vector<double> r;
        for (const Timed &t : spans)
            r.push_back(t.cells / (host.nominal(t.span) *
                                   t.seconds / t.span.wall()));
        return median(r);
    }
};

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Cells of @p spec in one pass's run order: programs shuffled and
 * modes rotated by (seed, pass / 2), so no program or mode always
 * runs first. Odd passes mirror the pass before them, so host-speed
 * drift over the pair weighs every mode alike.
 */
std::vector<SweepCell>
passOrder(const SweepSpec &spec, std::uint64_t seed, int pass)
{
    std::vector<SweepCell> cells = expandSweep(spec);
    std::vector<std::string> programs = spec.workloads;
    std::mt19937_64 rng(seed * 1000003u +
                        static_cast<unsigned>(pass / 2));
    std::shuffle(programs.begin(), programs.end(), rng);
    std::size_t rot = rng() % spec.modes.size();
    std::vector<SweepCell> order;
    for (const std::string &p : programs) {
        for (std::size_t m = 0; m < spec.modes.size(); ++m) {
            RunMode mode = spec.modes[(m + rot) % spec.modes.size()];
            for (const SweepCell &c : cells)
                if (c.workload == p && c.mode == mode)
                    order.push_back(c);
        }
    }
    if (pass % 2)
        std::reverse(order.begin(), order.end());
    return order;
}

/** The accuracy metrics, from an aggregated (assembled) sweep. */
struct Accuracy
{
    double accelErr = 0.0;
    double sampledErr = 0.0;
    double ciCoverage = 0.0;
};

Accuracy
accuracyOf(const SweepResult &sweep, Checks &checks)
{
    Accuracy a;
    int na = 0, ns = 0, nci = 0, inci = 0;
    for (const CellResult &r : sweep.cells) {
        if (r.failed)
            continue;
        if (r.cell.mode == RunMode::Accelerated) {
            checks.require(r.hasBaseline,
                           cellName(r.cell) + " has no Full twin");
            a.accelErr += r.cycleError;
            ++na;
        } else if (r.cell.mode == RunMode::SampledAccel) {
            a.sampledErr += r.cycleError;
            ++ns;
        }
        if (isSampledMode(r.cell.mode)) {
            checks.require(r.sample.hasOracle,
                           cellName(r.cell) + " has no unsampled twin");
            ++nci;
            inci += r.sample.withinCi ? 1 : 0;
        }
    }
    a.accelErr = na ? a.accelErr / na : 0.0;
    a.sampledErr = ns ? a.sampledErr / ns : 0.0;
    a.ciCoverage = nci ? static_cast<double>(inci) / nci : 0.0;
    return a;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::uint64_t workloadSeed = experimentSeed;
    std::string workDir = ".bench_build/perfbench-work";
    std::string gapReport;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Per-(program, mode) traced measurements for the gap report. */
struct CellTrace
{
    double untracedS = 0.0;
    double tracedS = 0.0;
    LayerProbe probe;
    RunTotals totals;
};

struct TraceData
{
    LayerProbe layers;      //!< all measured cells
    LayerProbe emulate;     //!< Emulate re-runs
    double untracedS = 0.0;
    double tracedS = 0.0;
    double fullS = 0.0;     //!< untraced Full cells
    double emulateS = 0.0;  //!< untraced Emulate re-runs
    std::map<std::pair<std::string, RunMode>, CellTrace> cells;
    std::map<std::string, CellTrace> emulateCells;
    double detailedInsts = 0.0;
    double predInsts = 0.0;
    double fills = 0.0;
    double memAccesses = 0.0;
    double l2Accesses = 0.0;
    double l2Misses = 0.0;
    double pollution = 0.0;
    double detailedFraction = 0.0;
    int sampledCells = 0;
    double ffInsts = 0.0;
    int passes = 0;
    int storePasses = 0;
    StorePass store;  //!< summed over store passes
};

/**
 * One traced pass over @p cells: each cell runs untraced (runCell)
 * and wrapped (runCellTraced), in alternating order, and the two
 * must agree bit for bit. @p after_cell runs after each cell.
 */
std::vector<CellResult>
tracedPass(const SweepSpec &spec, const std::vector<SweepCell> &cells,
           bool untraced_first, TraceData &td, Checks &checks,
           const std::function<void()> &after_cell = {})
{
    std::vector<CellResult> results(cells.size());
    for (const SweepCell &cell : cells) {
        CellResult plain;
        CellResult traced;
        LayerProbe probe;
        double ut = 0.0;
        double tt = 0.0;
        for (int leg = 0; leg < 2; ++leg) {
            double t0 = nowSeconds();
            if ((leg == 0) == untraced_first) {
                plain = runCell(spec, cell);
                ut = nowSeconds() - t0;
            } else {
                traced = perfbench::runCellTraced(spec, cell, &probe);
                tt = nowSeconds() - t0;
            }
        }
        checks.attempted += 2;
        checks.require(perfbench::sameResult(plain, traced),
                       cellName(cell) +
                           ": traced totals differ from untraced");
        td.untracedS += ut;
        td.tracedS += tt;
        td.layers += probe;
        CellTrace &ct = td.cells[{cell.workload, cell.mode}];
        ct.untracedS += ut;
        ct.tracedS += tt;
        ct.probe += probe;
        ct.totals = plain.totals;
        if (cell.mode == RunMode::Full)
            td.fullS += ut;
        const RunTotals &t = plain.totals;
        InstCount ff = plain.sample.present ? plain.sample.ffAppInsts : 0;
        td.detailedInsts +=
            static_cast<double>(t.totalInsts() - t.osPredInsts - ff);
        td.predInsts += static_cast<double>(t.osPredInsts);
        td.fills += static_cast<double>(plain.telemetry.counterValue(
            "machine", "footprint_install_fills"));
        td.pollution += static_cast<double>(plain.telemetry.counterValue(
            "machine", "pollution_slots_affected"));
        td.memAccesses += static_cast<double>(
            t.measuredMem.l1iAccesses + t.measuredMem.l1dAccesses);
        td.l2Accesses += static_cast<double>(t.measuredMem.l2Accesses);
        td.l2Misses += static_cast<double>(t.measuredMem.l2Misses);
        if (plain.sample.present) {
            td.detailedFraction += plain.sample.detailedFraction;
            ++td.sampledCells;
            td.ffInsts += static_cast<double>(ff);
        }
        results[cell.index] = std::move(plain);
        if (after_cell)
            after_cell();
    }
    return results;
}

/** Re-run every program's Full cell at DetailLevel::Emulate, plain
 *  and wrapped: the floor Eq. 10's R is measured against. */
void
emulatePass(const SweepSpec &spec, TraceData &td, Checks &checks)
{
    SweepSpec emu = spec;
    emu.baseConfig.level = DetailLevel::Emulate;
    for (const SweepCell &cell : expandSweep(spec)) {
        if (cell.mode != RunMode::Full)
            continue;
        double t0 = nowSeconds();
        CellResult plain = runCell(emu, cell);
        double ut = nowSeconds() - t0;
        LayerProbe probe;
        t0 = nowSeconds();
        CellResult traced = perfbench::runCellTraced(emu, cell, &probe);
        double tt = nowSeconds() - t0;
        checks.attempted += 2;
        checks.require(perfbench::sameResult(plain, traced),
                       cellName(cell) +
                           ": traced Emulate totals differ");
        td.emulateS += ut;
        td.emulate += probe;
        CellTrace &ct = td.emulateCells[cell.workload];
        ct.untracedS += ut;
        ct.tracedS += tt;
        ct.probe += probe;
        ct.totals = plain.totals;
    }
}

void
addStore(StorePass &sum, const StorePass &p)
{
    sum.cells += p.cells;
    sum.committed += p.committed;
    sum.fileBytes += p.fileBytes;
    sum.encodeS += p.encodeS;
    sum.decodeS += p.decodeS;
    sum.emitS += p.emitS;
    sum.fetchS += p.fetchS;
    sum.cellBytes += p.cellBytes;
    sum.profile.commitCount += p.profile.commitCount;
    sum.profile.commitUsTotal += p.profile.commitUsTotal;
    sum.profile.lockAcquisitions += p.profile.lockAcquisitions;
    sum.profile.lockWaitUsTotal += p.profile.lockWaitUsTotal;
    sum.profile.pagesWrittenTotal += p.profile.pagesWrittenTotal;
}

std::vector<Metric>
layerMetrics(const TraceData &td, double commit_cells_per_s,
             double replay_cells_per_s)
{
    double n = std::max(1, td.passes);
    double ns = std::max(1, td.storePasses);
    const LayerProbe &l = td.layers;
    const StorePass &s = td.store;
    double commits = static_cast<double>(s.profile.commitCount);
    return {
        {"workload.self_s", l.workloadS / n, "s"},
        {"workload.ops", static_cast<double>(l.ops) / n, "count"},
        {"workload.ns_per_op", ratio(l.workloadS * 1e9,
                                     static_cast<double>(l.ops)),
         "ns"},
        {"os.invoke_s", l.invokeS / n, "s"},
        {"os.invoke_calls", static_cast<double>(l.invokeCalls) / n,
         "count"},
        {"os.irq_s", l.irqS / n, "s"},
        {"os.share_of_emulate",
         ratio(td.emulate.invokeS, td.emulate.runS), "frac"},
        {"core.self_s", l.coreS / n, "s"},
        {"core.decisions", static_cast<double>(l.decisions) / n,
         "count"},
        {"core.coverage", ratio(static_cast<double>(l.predicted),
                                static_cast<double>(l.decisions)),
         "frac"},
        {"sim.self_s", l.simSelfS() / n, "s"},
        {"sim.detailed_insts", td.detailedInsts / n, "count"},
        {"sim.pred_insts", td.predInsts / n, "count"},
        {"sim.emulate_floor_s", td.emulateS / n, "s"},
        {"sim.r_measured", ratio(td.fullS, td.emulateS), "x"},
        {"sim.footprint_fills", td.fills / n, "count"},
        {"sim.fills_per_pred_kinst",
         ratio(td.fills, td.predInsts / 1000.0), "1/kinst"},
        {"mem.accesses", td.memAccesses / n, "count"},
        {"mem.l2_miss_rate", ratio(td.l2Misses, td.l2Accesses), "frac"},
        {"mem.pollution_slots_affected", td.pollution / n, "count"},
        {"stats.profile_s", l.profileS / n, "s"},
        {"stats.stratify_s", l.stratifyS / n, "s"},
        {"stats.detailed_fraction",
         ratio(td.detailedFraction, td.sampledCells), "frac"},
        {"stats.ff_insts", td.ffInsts / n, "count"},
        {"driver.encode_s", s.encodeS / ns, "s"},
        {"driver.decode_s", s.decodeS / ns, "s"},
        {"driver.emit_s", s.emitS / ns / kAssemblies, "s"},
        {"driver.cell_bytes",
         ratio(static_cast<double>(s.cellBytes),
               static_cast<double>(s.cells)),
         "B"},
        {"driver.replay_cells_per_s", replay_cells_per_s, "1/s"},
        {"store.commit_cells_per_s", commit_cells_per_s, "1/s"},
        {"store.commit_us",
         ratio(static_cast<double>(s.profile.commitUsTotal), commits),
         "us"},
        {"store.lock_wait_us",
         ratio(static_cast<double>(s.profile.lockWaitUsTotal),
               static_cast<double>(s.profile.lockAcquisitions)),
         "us"},
        {"store.commits", commits / ns, "count"},
        {"store.cow_pages",
         ratio(static_cast<double>(s.profile.pagesWrittenTotal),
               commits),
         "count"},
        {"store.fetch_s", s.fetchS / ns, "s"},
        {"store.file_bytes", static_cast<double>(s.fileBytes) / ns,
         "B"},
        {"bench.trace_overhead", ratio(td.tracedS, td.untracedS), "x"},
    };
}

std::string
pct(double num, double den)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f%%",
                  den > 0.0 ? 100.0 * num / den : 0.0);
    return buf;
}

std::string
fixed(double v, int digits)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.*f", digits, v);
    return buf;
}

/** The Table 2 gap report: Eq. 10 at the measured R beside the
 *  measured speedup, and where each mode's host time goes. */
void
writeGapReport(const std::string &path, const Workload &w,
               const Options &opt, const TraceData &td)
{
    std::ofstream os(path);
    os << "# Table 2 gap report (" << w.name << ", workload seed "
       << opt.workloadSeed << ", scale " << w.spec.scale << ")\n\n"
       << "Generated by `perfbench --workload " << w.name
       << " --trace 1 --seconds " << opt.seconds
       << " --gap-report <path>` (" << td.passes
       << " passes). Host times are the untraced twins' sums over the "
          "passes; layer shares are from the wrapped twins, as shares "
          "of Machine::run wall.\n\n"
       << "R is Full / Emulate host time for the program, Eq. 10's "
          "slowdown ratio. `eq10@R` is the speedup Eq. 10 predicts for "
          "the Accelerated cell at that R; `measured` is Full / "
          "Accelerated host time.\n\n"
       << "| program | coverage | R | eq10@R | measured | gap |\n"
       << "|---|---|---|---|---|---|\n";
    double logEq10 = 0.0;
    double logMeasured = 0.0;
    int programs = 0;
    for (const std::string &p : w.spec.workloads) {
        auto full = td.cells.find({p, RunMode::Full});
        auto acc = td.cells.find({p, RunMode::Accelerated});
        auto emu = td.emulateCells.find(p);
        if (full == td.cells.end() || acc == td.cells.end() ||
            emu == td.emulateCells.end())
            continue;
        double r = ratio(full->second.untracedS, emu->second.untracedS);
        double eq10 = estimatedSpeedup(acc->second.totals, r);
        double measured =
            ratio(full->second.untracedS, acc->second.untracedS);
        os << "| " << p << " | "
           << pct(acc->second.totals.coverage(), 1.0) << " | "
           << fixed(r, 2) << "x | " << fixed(eq10, 2) << "x | "
           << fixed(measured, 2) << "x | "
           << fixed(ratio(eq10, measured), 2) << "x |\n";
        logEq10 += std::log(eq10);
        logMeasured += std::log(measured);
        ++programs;
    }
    if (programs) {
        double g10 = std::exp(logEq10 / programs);
        double gm = std::exp(logMeasured / programs);
        os << "| gmean | | | " << fixed(g10, 2) << "x | " << fixed(gm, 2)
           << "x | " << fixed(ratio(g10, gm), 2) << "x |\n";
    }
    os << "\nShare of Machine::run wall per layer (`os` = invoke + "
          "interrupts/page touches; `sim` = the rest of the run "
          "loop: lowering, timing engines, hierarchy, pollution, BP "
          "warming).\n\n"
       << "| program | mode | run s | workload | os.invoke | os.irq | "
          "core | sim |\n"
       << "|---|---|---|---|---|---|---|---|\n";
    auto row = [&](const std::string &p, const char *mode,
                   const CellTrace &ct) {
        const LayerProbe &l = ct.probe;
        os << "| " << p << " | " << mode << " | " << fixed(l.runS, 3)
           << " | " << pct(l.workloadS, l.runS) << " | "
           << pct(l.invokeS, l.runS) << " | " << pct(l.irqS, l.runS)
           << " | " << pct(l.coreS, l.runS) << " | "
           << pct(l.simSelfS(), l.runS) << " |\n";
    };
    for (const std::string &p : w.spec.workloads) {
        for (RunMode m : {RunMode::Full, RunMode::Accelerated}) {
            auto it = td.cells.find({p, m});
            if (it != td.cells.end())
                row(p, runModeName(m), it->second);
        }
        auto emu = td.emulateCells.find(p);
        if (emu != td.emulateCells.end())
            row(p, "emulate", emu->second);
    }
    os << "\nEXPERIMENTS.md still quotes R = 45.9x and a 1.40x "
          "measured gmean for Table 2; both are stale against the R "
          "column above and should be refreshed by a documentation "
          "change.\n";
}

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload "
                 "os-accel|app-sampled|store-replay --seed N "
                 "--seconds S --trace 0|1 [--workload-seed W] "
                 "[--work-dir DIR] [--gap-report PATH]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        std::string v = argv[++i];
        try {
            if (a == "--workload") {
                o.workload = v;
                have_workload = true;
            } else if (a == "--seed") {
                o.seed = std::stoull(v);
            } else if (a == "--seconds") {
                o.seconds = std::stod(v);
            } else if (a == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace takes 0 or 1");
                o.trace = v == "1";
            } else if (a == "--workload-seed") {
                o.workloadSeed = std::stoull(v);
            } else if (a == "--work-dir") {
                o.workDir = v;
            } else if (a == "--gap-report") {
                o.gapReport = v;
            } else {
                usage("unknown option " + a);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

void
printResult(const Checks &checks, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-30s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &f : checks.failures)
        std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                checks.failures.empty() ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

/** Run @p cells of @p spec untraced, timing each one (and listing it
 *  on stderr when @p log is set). With @p host set, samples the host's
 *  speed after each cell. @p after_cell, if set, runs untimed after
 *  each cell. */
std::vector<CellResult>
plainPass(const SweepSpec &spec, const std::vector<SweepCell> &cells,
          SimSpans &spans, HostSpeed *host, Checks &checks,
          const std::function<void()> &after_cell = {}, bool log = true)
{
    std::vector<CellResult> results(cells.size());
    for (const SweepCell &c : cells) {
        Span span = spanFrom(nowSeconds());
        results[c.index] = runCell(spec, c);
        span.t1 = nowSeconds();
        if (host)
            host->sample(kSamplesPerCell);
        spans.add(results[c.index], span);
        ++checks.attempted;
        if (log)
            std::fprintf(stderr, "  %-28s %7.3f s  coverage %.3f\n",
                         cellName(c).c_str(), span.wall(),
                         results[c.index].totals.coverage());
        if (after_cell)
            after_cell();
    }
    return results;
}

/** A cellRunner that returns each cell's already simulated value, so
 *  the store and driver run and nothing is simulated. */
CellRunner
replayRunner(const std::vector<CellResult> &simulated)
{
    return [simulated](const SweepSpec &, const SweepCell &c,
                       std::size_t) { return simulated.at(c.index); };
}

/**
 * One set-up: the spec, plus what the benchmark runs before its
 * first measured cell. os-accel and app-sampled warm each program
 * with a small Full cell; store-replay simulates its cells.
 */
std::vector<CellResult>
setUp(const Workload &w, const Options &opt, int rep, Checks &checks)
{
    SimSpans unused;
    if (w.replay)
        return plainPass(w.spec, passOrder(w.spec, opt.seed, rep),
                         unused, nullptr, checks, {}, false);
    SweepSpec warm = w.spec;
    warm.modes = {RunMode::Full};
    warm.scale = kWarmScale;
    plainPass(warm, expandSweep(warm), unused, nullptr, checks, {},
              false);
    return {};
}

int
run(const Options &opt)
{
    Checks checks;
    std::filesystem::path dir = opt.workDir;
    std::filesystem::create_directories(dir);
    HostSpeed host;

    // --- set-up, repeated; setup_s is the median -----------------
    Workload w;
    std::vector<Span> setups;
    std::vector<CellResult> replayCells;  // store-replay
    for (int rep = 0; rep < kSetupReps; ++rep) {
        double t0 = nowSeconds();
        w = makeWorkload(opt.workload, opt.workloadSeed);
        replayCells = setUp(w, opt, rep, checks);
        setups.push_back(spanFrom(t0));
        host.sample(kSamplesPerCell);
        std::fprintf(stderr, "  set-up %d %24s %7.3f s\n", rep, "",
                     setups.back().wall());
    }

    TraceData td;
    CellRunner runner;
    std::string reference;  // canonical results.json, store-free
    if (w.replay) {
        checkCells(w, replayCells, checks);
        runner = replayRunner(replayCells);
        reference = directCanonical(w.spec, runner);
        if (opt.trace) {
            // Layer attribution of the replayed cells.
            tracedPass(w.spec, passOrder(w.spec, opt.seed, 0),
                       opt.seed % 2 == 0, td, checks);
            emulatePass(w.spec, td, checks);
            ++td.passes;
        }
    }

    // --- measured loop ------------------------------------------
    double start = nowSeconds();
    SimSpans spans;
    StoreRates rates;
    std::vector<CellResult> firstPass;
    Accuracy accuracy;
    // Simulated passes come in mirrored pairs (passOrder), traced or
    // not; another pair starts only if it should end near --seconds.
    double pairStart = start;
    double pairS = 0.0;
    auto more = [&](int pass) {
        double now = nowSeconds();
        if (pass == 0)
            return true;
        if (w.replay)
            return now - start < opt.seconds;
        if (pass % 2 == 1)
            return true;
        pairS = now - pairStart;
        pairStart = now;
        return now - start + pairS / 2 < opt.seconds;
    };
    auto storePass = [&] {
        StorePass sp = runStorePass(w.spec, runner, dir, opt.trace,
                                    host, checks);
        checks.require(sp.canonical == reference,
                       "assembled results.json differs from a direct "
                       "runSweep of the same spec");
        if (rates.commits.empty())
            accuracy = accuracyOf(sp.assembled, checks);
        rates.add(sp);
        std::fprintf(stderr,
                     "  store pass: %llu cells, commit %.3f s, "
                     "assemble %.3f s\n",
                     static_cast<unsigned long long>(sp.cells),
                     sp.commit.wall(), sp.replays.front().wall());
        if (opt.trace) {
            addStore(td.store, sp);
            ++td.storePasses;
        }
    };
    // Once the first pass's cells exist, store passes run between the
    // later passes' cells, so they sample the host's speed across the
    // run rather than in one burst.
    auto afterCell = [&] {
        if (runner)
            for (int k = 0; k < kStorePassesPerCell; ++k)
                storePass();
    };
    int simPasses = 0;
    for (int pass = 0; more(pass); ++pass) {
        if (w.replay) {
            if (!opt.trace && pass % kReplayStorePasses == 0) {
                std::vector<CellResult> again = plainPass(
                    w.spec, passOrder(w.spec, opt.seed, simPasses++),
                    spans, &host, checks);
                for (std::size_t i = 0; i < again.size(); ++i)
                    checks.require(
                        perfbench::sameResult(again[i], replayCells[i]),
                        cellName(again[i].cell) +
                            " differs from its set-up run");
            }
            storePass();
            continue;
        }
        std::vector<SweepCell> order = passOrder(w.spec, opt.seed, pass);
        std::vector<CellResult> results;
        if (opt.trace) {
            results = tracedPass(w.spec, order, (opt.seed + pass) % 2 == 0,
                                 td, checks, afterCell);
            emulatePass(w.spec, td, checks);
            ++td.passes;
        } else {
            results = plainPass(w.spec, order, spans, &host, checks,
                                afterCell);
        }
        checkCells(w, results, checks);
        if (firstPass.empty()) {
            firstPass = results;
            runner = replayRunner(firstPass);
            reference = directCanonical(w.spec, runner);
        } else {
            for (std::size_t i = 0; i < results.size(); ++i)
                checks.require(
                    perfbench::sameResult(results[i], firstPass[i]),
                    cellName(results[i].cell) + " differs between passes");
        }
    }
    std::filesystem::remove(dir / "results.json");

    std::vector<Metric> metrics;
    if (opt.trace) {
        metrics = layerMetrics(td, StoreRates::rate(rates.commits, host),
                               StoreRates::rate(rates.replays, host));
        if (!opt.gapReport.empty())
            writeGapReport(opt.gapReport, w, opt, td);
    } else {
        // Absolute rates at nominal host speed. The speedups are
        // ratios of interleaved, mirrored cells, which cancel the
        // host's speed by themselves, so they keep wall time.
        std::fprintf(stderr,
                     "  wall-clock sim_mips %.4g; %zu host-speed samples, "
                     "median %.3f ms\n",
                     spans.mips(nullptr), host.samples(),
                     1e3 * host.medianSample());
        double fullS = spans.wall(RunMode::Full);
        std::vector<double> setupS;
        for (const Span &sp : setups)
            setupS.push_back(host.nominal(sp));
        metrics = {
            {"setup_s", median(setupS), "s"},
            {"sim_mips", spans.mips(&host), "Minst/s"},
            {"accel_speedup",
             ratio(fullS, spans.wall(RunMode::Accelerated)), "x"},
            {"sampled_speedup",
             ratio(fullS, spans.wall(RunMode::SampledAccel)), "x"},
            {"accel_cycle_acc", 1.0 - accuracy.accelErr, "frac"},
            {"sampled_cycle_acc", 1.0 - accuracy.sampledErr, "frac"},
            {"ci_coverage", accuracy.ciCoverage, "frac"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"store_bytes_per_cell", median(rates.bytesPerCell), "B"},
        };
    }
    printResult(checks, metrics);
    return checks.failures.empty() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    osp::setLogLevel(osp::LogLevel::Warn);
    try {
        return run(opt);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
