/**
 * @file
 * The parallel experiment-sweep harness.
 *
 * The paper's evaluation (and this repo's bench/ regenerations) is a
 * pile of cartesian sweeps: workload x run-mode x re-learning
 * strategy x pollution policy x L2 size x seed, each point an
 * independent Machine(+Accelerator) run. A SweepSpec names such a
 * product, expandSweep() flattens it into indexed cells, and
 * runSweep() executes the cells on plain threads that take them in
 * index order from one shared counter, each cell an isolated
 * simulator instance with a deterministic seed derived from
 * (baseSeed, seed index).
 *
 * Determinism contract: the aggregated result — and its JSON form
 * with timing excluded — is byte-identical for any thread count at
 * the same spec. Cells write into preassigned slots, aggregation
 * runs after the join in cell-index order, and nothing reads clocks
 * except the (excludable) wall-time fields. This is what lets CI
 * diff result artifacts and makes the harness trustworthy for
 * accuracy claims.
 */

#ifndef OSP_DRIVER_SWEEP_HH
#define OSP_DRIVER_SWEEP_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/report.hh"
#include "core/service_predictor.hh"
#include "obs/telemetry.hh"
#include "sim/machine.hh"
#include "stats/stratify.hh"
#include "util/json.hh"

namespace osp
{

/** How one cell executes its workload. */
enum class RunMode
{
    Full,         //!< fully detailed (reference/baseline)
    AppOnly,      //!< application-only (SimpleScalar-style)
    Accelerated,  //!< detailed + the paper's prediction engine
    /** Stratified interval sampling of user time, OS time fully
     *  simulated (sample-only ablation). */
    Sampled,
    /** Sampling composed with the prediction engine: user time
     *  sampled, kernel time predicted — the multiplicative shrink
     *  of detailed-simulation work (fig13). */
    SampledAccel,
};

/** Display name ("full", "app-only", "accelerated", "sampled",
 *  "sampled-accel"). */
const char *runModeName(RunMode mode);

/** True for the two stratified-sampling modes. */
bool isSampledMode(RunMode mode);

/** True for the two modes that attach the prediction engine
 *  (Accelerated, SampledAccel): only their cells expand over the
 *  predictor and pollution axes, carry a PLT profile and an
 *  accuracy ledger, and warm-start from an archived profile. */
bool needsPredictor(RunMode mode);

/** One predictor configuration under test, with a report label. */
struct PredictorVariant
{
    std::string label;
    PredictorParams params;
};

/**
 * Stratified interval-sampling knobs for the Sampled/SampledAccel
 * modes (the `--sample intervals=N,strata=K,rate=R` CLI surface).
 * Part of cell identity: every field is folded into the content
 * address of sampled cells.
 */
struct SampleParams
{
    bool enabled = false;
    /** Interval length in application instructions. */
    InstCount intervalLen = 20000;
    std::uint32_t strata = 4;
    /** Target fraction of full intervals simulated in detail. */
    double rate = 0.25;
    StratifyParams::Allocation allocation =
        StratifyParams::Allocation::Proportional;
};

/** A named cartesian product of experiment dimensions. */
struct SweepSpec
{
    std::string name;
    std::vector<std::string> workloads;
    std::vector<RunMode> modes = {RunMode::Full,
                                  RunMode::Accelerated};
    /** Applied to predicting cells only (see needsPredictor);
     *  other modes run once regardless of how many variants are
     *  listed. */
    std::vector<PredictorVariant> predictors;
    /** Cache-pollution policies (predicting cells only). */
    std::vector<PollutionPolicy> pollution = {
        PollutionPolicy::Footprint};
    std::vector<std::uint64_t> l2Sizes = {1024 * 1024};
    /** Seed replications: seed index i runs every other dimension
     *  at cellSeed(baseSeed, i). */
    std::uint64_t numSeeds = 1;
    std::uint64_t baseSeed = 42;
    /** Work-volume scale handed to makeMachine(). */
    double scale = 1.0;
    /** Label only: set when the scale was reduced for smoke runs. */
    bool smoke = false;
    /** Stratified-sampling knobs; consulted by Sampled and
     *  SampledAccel cells only. */
    SampleParams sample;
    /** Template for every cell's MachineConfig; seed, L2 size,
     *  appOnly and pollution policy are overridden per cell. */
    MachineConfig baseConfig;
};

/**
 * Turn sampling on for @p spec: records @p params and appends a
 * Sampled mode (when the spec has a Full baseline to compare
 * against) and a SampledAccel mode (when the spec has predictors to
 * compose with), skipping modes already present. This is the
 * `--sample` CLI transform, exposed so tests and CI drive the exact
 * same spec mutation.
 */
void applySweepSampling(SweepSpec &spec, const SampleParams &params);

/**
 * Per-cell machine seed. Seed index 0 maps to the base seed itself,
 * so single-seed sweeps replay the documented bench results
 * (EXPERIMENTS.md, seed 42) exactly; further indices are splitmix64
 * mixes, giving independent streams per replication.
 *
 * Cells that must be *comparable* — the same (workload, L2, seed
 * index) under different modes or predictors, e.g. an accelerated
 * run and the full-detail baseline its error is measured against —
 * deliberately share a seed: deriving from the flat cell index
 * instead would make every error metric measure seed variance, not
 * prediction quality.
 */
std::uint64_t cellSeed(std::uint64_t base_seed,
                       std::uint64_t seed_index);

/** One point of the flattened product. */
struct SweepCell
{
    std::size_t index = 0;      //!< position in expansion order
    std::string workload;
    RunMode mode = RunMode::Full;
    std::size_t predictorIndex = 0;  //!< into spec.predictors
    std::size_t pollutionIndex = 0;  //!< into spec.pollution
    std::uint64_t l2Bytes = 1024 * 1024;
    std::uint64_t seedIndex = 0;
    std::uint64_t seed = 0;     //!< cellSeed(base, seedIndex)
};

/**
 * Flatten a spec into cells, in deterministic order: workload
 * (outer), L2 size, seed index, mode, then predictor x pollution
 * for predicting cells. Other cells are emitted once per (workload,
 * L2, seed) — the predictor and pollution axes do not affect them,
 * so duplicating them would only burn cycles.
 */
std::vector<SweepCell> expandSweep(const SweepSpec &spec);

/**
 * What a sampled cell's two-phase run measured and estimated (the
 * per-cell payload of the "ospredict-sample-v1" results section).
 * Cycles are carried as doubles: the estimate is a weighted mean
 * expansion, not a count.
 */
struct CellSampleSection
{
    bool present = false;
    InstCount intervalLen = 0;
    std::uint64_t numIntervals = 0;      //!< full intervals
    std::uint64_t numStrata = 0;
    std::uint64_t sampledIntervals = 0;  //!< full intervals sampled
    InstCount tailInsts = 0;             //!< always-detailed tail
    Cycles tailCycles = 0;
    /** App instructions simulated on the timing engine (sampled
     *  intervals + tail) vs fast-forwarded with warming. */
    InstCount detailedAppInsts = 0;
    InstCount ffAppInsts = 0;
    double estAppCycles = 0.0;   //!< stratified total + tail
    double estTotalCycles = 0.0; //!< + measured/predicted OS cycles
    double ciHalfWidth = 0.0;    //!< 95% half-width on estTotal
    std::uint64_t df = 0;
    bool hasCi = false;
    /** Detailed-simulated fraction of all retired instructions
     *  (app sampled + tail + detailed OS) — the work that remains. */
    double detailedFraction = 0.0;
    /** Per-stratum [N_h, n_h, mean, sample variance]. */
    std::vector<StratumEstimate> strata;

    // Filled by the aggregator when a Full baseline exists:
    /** |estTotalCycles - oracle| / oracle. */
    double oracleError = 0.0;
    bool hasOracle = false;
    bool withinCi = false;  //!< oracle inside [est +- ciHalfWidth]
};

/** Everything one cell produced. */
struct CellResult
{
    SweepCell cell;
    RunTotals totals;
    /** Aggregate predictor statistics (predicting cells). */
    ServicePredictor::Stats stats{};
    bool hasStats = false;
    /**
     * The cell's metrics registry at end of run (sorted instrument
     * order; see obs/metrics.hh). Always populated by the runner.
     */
    obs::MetricsSnapshot telemetry;
    /** Ring occupancy/overflow of the cell's tracer. */
    obs::TraceSummary traceInfo;
    /**
     * The cell's accuracy-ledger snapshot: per-(service, cluster)
     * audit-error distributions, drift flags and predicted-cycle
     * mass (see obs/accuracy.hh). Empty unless the cell predicts
     * (see needsPredictor). Always taken by the runner.
     */
    obs::AccuracySnapshot accuracy;
    /** Retained trace events, oldest first (empty unless the runner
     *  was given a trace capacity). */
    std::vector<obs::TraceEvent> trace;
    /**
     * The learned PLT profile at end of run (Accelerator::saveState
     * text; empty for baseline cells). Captured so the persistent
     * store can archive it for cross-run warm starts.
     */
    std::string pltProfile;
    /** Two-phase sampling measurements (Sampled/SampledAccel cells
     *  only; present is false otherwise). */
    CellSampleSection sample;
    /**
     * Worker-thread failure capture: a cell whose run threw keeps
     * its slot with failed set and the exception text in error, so
     * one bad cell no longer takes down the whole sweep (and CI can
     * see *which* point failed). Failed cells are excluded from
     * baselines and summaries.
     */
    bool failed = false;
    std::string error;
    /** Wall-clock seconds for this cell's run() (volatile: excluded
     *  from canonical JSON). */
    double wallSeconds = 0.0;

    // Filled by the aggregator:
    /** |cycles - baseline| / baseline vs the Full cell at the same
     *  (workload, L2, seed index); valid when hasBaseline. */
    double cycleError = 0.0;
    /** Signed form of the same oracle error, (cycles - baseline) /
     *  baseline: comparable to the accuracy ledger's signed
     *  audit-estimated error. Valid when hasBaseline. */
    double signedCycleError = 0.0;
    bool hasBaseline = false;
    /** Eq. 10 estimate at the paper's R = 133 (Accelerated). */
    double estSpeedupR133 = 1.0;
};

/** Per-predictor-variant rollup over accelerated cells. */
struct VariantSummary
{
    std::string label;
    std::uint64_t cells = 0;
    double meanCycleError = 0.0;
    double worstCycleError = 0.0;
    double meanCoverage = 0.0;
    double meanEstSpeedupR133 = 0.0;
};

/**
 * The canonical store section of a cached sweep ("ospredict-
 * store-v1" in the results document). Deliberately contains only
 * data invariant across thread counts AND across warm/cold runs —
 * the code fingerprint and the per-cell content-addressed keys —
 * so the determinism contract extends to cached sweeps. Volatile
 * cache statistics (hits/misses/bytes) live in the separate
 * --store-stats document instead.
 */
struct StoreSection
{
    bool present = false;
    std::string fingerprint;         //!< code fingerprint in keys
    std::vector<std::string> cellKeys;  //!< hex, cell-index order
};

/** The aggregated result set of one sweep. */
struct SweepResult
{
    SweepSpec spec;
    std::vector<CellResult> cells;   //!< in cell-index order
    std::vector<VariantSummary> summary;
    StoreSection store;              //!< set when a cache was used
    unsigned threads = 1;            //!< volatile (timing section)
    double wallSeconds = 0.0;        //!< volatile (timing section)

    /**
     * Cell lookup by coordinates; nullptr when the spec did not
     * generate such a cell. Modes that do not predict ignore the
     * predictor and pollution indices (they are pinned to 0 in
     * expansion).
     */
    const CellResult *find(const std::string &workload, RunMode mode,
                           std::size_t predictor_index = 0,
                           std::uint64_t l2_bytes = 0,
                           std::uint64_t seed_index = 0,
                           std::size_t pollution_index = 0) const;
};

class CellCache;

/** Runner knobs. */
struct RunnerOptions
{
    /** Worker threads; 0 picks hardware_concurrency(). Capped at
     *  the number of cells left to run (at least 1). */
    unsigned threads = 1;
    /** Per-cell event-ring size; 0 = metrics only, no tracing. */
    std::size_t traceCapacity = 0;
    /**
     * Persistent sweep-cell cache. When set, every executed cell is
     * recorded (one transaction after the join) and the results
     * document gains the canonical store section. Lookups and
     * inserts run on the driving thread in cell-index order, so
     * caching never perturbs the determinism contract.
     */
    CellCache *cache = nullptr;
    /**
     * Reuse cached cells instead of re-simulating them (requires
     * cache). Off, the cache only records — a cold run counts every
     * cell as a miss, which is what CI's zero-miss warm assertion
     * is measured against.
     */
    bool incremental = false;
    /**
     * Assembly after a distributed run (requires incremental):
     * cells with no cached value but an exhausted claim record are
     * marked failed from the claim table instead of re-executed, so
     * the assembled document equals the single-process one even for
     * cells that failed in a worker. See CellCache::fetch.
     */
    bool claimAware = false;
    /**
     * Archived PLT profiles by workload: predicting cells of a
     * listed workload warm-start their predictors from the profile
     * (and the profile's hash becomes part of those cells' cache
     * identity — see CellCache). Null = no warm starts.
     */
    const std::map<std::string, std::string> *warmProfiles = nullptr;
    /**
     * Test seam: replaces the per-cell body (runCell) when set.
     * Exceptions it throws are captured into the cell's slot like
     * any worker failure.
     */
    std::function<CellResult(const SweepSpec &, const SweepCell &,
                             std::size_t trace_capacity)>
        cellRunner;
};

/**
 * Execute every cell of the sweep on options.threads threads (the
 * calling one and threads - 1 helpers, joined before returning) and
 * aggregate (error vs baselines, Eq. 10 estimates, per-variant
 * summaries). See the file comment for the determinism contract.
 */
SweepResult runSweep(const SweepSpec &spec,
                     const RunnerOptions &options = {});

/**
 * Run a single cell in isolation: the exact Machine(+Accelerator)
 * construction runSweep's threads perform. Exposed so tests can
 * assert that sweep cells match standalone runs, and so tools can
 * re-run one point of a sweep.
 *
 * @param trace_capacity the cell's event-ring size (0 = no tracing)
 * @param warm_profile   archived PLT profile text to warm-start a
 *                       predicting cell's predictors from
 *                       (nullptr = learn online as usual)
 */
CellResult runCell(const SweepSpec &spec, const SweepCell &cell,
                   std::size_t trace_capacity = 0,
                   const std::string *warm_profile = nullptr);

/**
 * The one cell-execution step shared by runSweep and the claim-loop
 * worker (driver/claim_executor.hh): pick the cell's warm profile
 * from @p warm_profiles (predicting cells only), run @p cell_runner
 * when set or else runCell, and capture any exception into a failed
 * CellResult for the cell instead of propagating it.
 */
CellResult executeCell(
    const SweepSpec &spec, const SweepCell &cell,
    std::size_t trace_capacity,
    const std::map<std::string, std::string> *warm_profiles,
    const std::function<CellResult(const SweepSpec &,
                                   const SweepCell &, std::size_t)>
        &cell_runner);

/** JSON emission knobs. */
struct JsonOptions
{
    /**
     * Include wall-clock fields (per-cell "wall_s" and the
     * top-level "timing" object). These are the only
     * non-deterministic bytes in the document; exclude them to get
     * the canonical form CI diffs across thread counts.
     */
    bool includeTiming = true;
};

/** Build the "ospredict-sweep-v1" results document. */
JsonValue sweepToJson(const SweepResult &result,
                      const JsonOptions &options = {});

/** sweepToJson() pretty-printed to a stream, trailing newline. */
void writeResultsJson(std::ostream &os, const SweepResult &result,
                      const JsonOptions &options = {});

/**
 * Human-readable accuracy report (util/table): one per-cell rollup
 * table — audits, pooled audit error with its 95% CI, the
 * extrapolated end-to-end estimate, the oracle error where a Full
 * baseline exists and whether the oracle fell inside the ledger's
 * CI — followed by the error-budget table ranking (workload,
 * service, cluster) rows by their absolute contribution to
 * end-to-end error. Deterministic: derived from the same per-cell
 * snapshots as the JSON section, ordered by (|contribution|, cell
 * index, service, cluster).
 */
void writeAccuracyReport(std::ostream &os,
                         const SweepResult &result);

/**
 * Emit every cell's retained trace events as a chrome://tracing
 * JSON document (load via chrome://tracing or https://ui.perfetto.dev).
 * pid = cell index, tid = service index, ts/dur = simulated
 * instruction count / cycles — so the document is as deterministic
 * as the sweep itself. Cells are emitted in index order.
 */
void writeChromeTrace(std::ostream &os, const SweepResult &result);

} // namespace osp

#endif // OSP_DRIVER_SWEEP_HH
