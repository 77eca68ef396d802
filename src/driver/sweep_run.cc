#include "sweep.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <sstream>

#include "cell_cache.hh"
#include "core/accelerator.hh"
#include "thread_pool.hh"
#include "util/logging.hh"
#include "workload/registry.hh"

namespace osp
{

CellResult
runCell(const SweepSpec &spec, const SweepCell &cell,
        std::size_t trace_capacity,
        const std::string *warm_profile)
{
    MachineConfig cfg = spec.baseConfig;
    cfg.seed = cell.seed;
    cfg.hier.l2.sizeBytes = cell.l2Bytes;
    cfg.appOnly = (cell.mode == RunMode::AppOnly);
    bool predicts = needsPredictor(cell.mode);
    if (predicts)
        cfg.pollutionPolicy = spec.pollution[cell.pollutionIndex];
    bool sampled = isSampledMode(cell.mode);
    const SampleParams &sp = spec.sample;

    CellResult result;
    result.cell = cell;

    // One telemetry sink per cell: cells are the unit of
    // parallelism, so the registry never sees two threads.
    obs::Telemetry telemetry(trace_capacity);

    auto start = std::chrono::steady_clock::now();

    // Two-phase stratified sampling. Phase 1 profiles fixed-length
    // app-instruction intervals in pure emulation; the stratifier
    // clusters them and draws a seeded sample; Phase 2 (the machine
    // below) re-runs the workload at the configured detail level
    // with only the sampled intervals (plus the partial tail) on the
    // timing engine, fast-forwarding the rest with functional
    // warming. Kernel time is never sampled: SampledAccel predicts
    // it exactly as Accelerated does, Sampled simulates it in detail
    // everywhere.
    StrataAssignment strata;
    SamplePlan plan;
    if (sampled) {
        // A separate machine with the same seed: instruction streams
        // are mode-invariant across detail levels, so interval
        // boundaries observed here transfer to Phase 2 exactly. No
        // controller is attached — an Emulate-level pass must not
        // feed predictor or audit state (see Machine::runServiceT).
        IntervalProfiler profiler(sp.intervalLen);
        {
            MachineConfig p1 = cfg;
            p1.level = DetailLevel::Emulate;
            auto machine = makeMachine(cell.workload, p1, spec.scale);
            machine->setIntervalProfiler(&profiler);
            machine->run();
        }

        // Stratify and draw. The draw is seeded by the cell seed, so
        // replications (seed indices) sample independent interval
        // sets while comparable cells share one.
        StratifyParams stp;
        stp.strata = sp.strata;
        stp.rate = sp.rate;
        stp.allocation = sp.allocation;
        stp.seed = cell.seed;
        strata = stratifyIntervals(profiler.featureMatrix(), stp);
        std::vector<std::uint64_t> picks =
            drawStratifiedSample(strata, stp, profiler.costProxy());

        plan.intervalLen = sp.intervalLen;
        plan.fullIntervals = profiler.fullIntervals();
        plan.sampledMask.assign(
            static_cast<std::size_t>(plan.fullIntervals), 0);
        for (std::uint64_t idx : picks)
            plan.sampledMask[static_cast<std::size_t>(idx)] = 1;
    }

    auto machine = makeMachine(cell.workload, cfg, spec.scale);
    machine->setTelemetry(&telemetry);
    if (sampled)
        machine->setSamplePlan(&plan);
    // Only predicting modes pay for an Accelerator.
    std::optional<Accelerator> accel;
    if (predicts) {
        accel.emplace(spec.predictors[cell.predictorIndex].params);
        accel->setTelemetry(&telemetry);
        if (warm_profile) {
            // Cross-run warm start: predictors begin in the
            // Predicting state with the archived cluster stats —
            // the paper's offline approach (see store/plt_archive).
            std::istringstream is(*warm_profile);
            if (!accel->loadState(is))
                warn("cell ", cell.workload,
                     ": archived PLT profile rejected; learning "
                     "online");
        }
        machine->setController(&*accel);
    }
    result.totals = machine->run();
    if (accel) {
        result.stats = accel->aggregateStats();
        result.hasStats = true;
        std::ostringstream profile;
        accel->saveState(profile);
        result.pltProfile = profile.str();
    }

    if (sampled) {
        // Expand the per-stratum means to a whole-run estimate. The
        // tail (and any partial last interval) was simulated in
        // detail, so it enters as a measured constant, not an
        // extrapolation.
        std::vector<std::uint64_t> idxs;
        std::vector<double> vals;
        Cycles tail_cycles = 0;
        InstCount tail_insts = 0;
        InstCount detailed_app = 0;
        for (const IntervalSample &s : machine->sampleLog()) {
            detailed_app += s.appInsts;
            if (s.index < plan.fullIntervals) {
                idxs.push_back(s.index);
                vals.push_back(static_cast<double>(s.appCycles));
            } else {
                tail_cycles += s.appCycles;
                tail_insts += s.appInsts;
            }
        }
        StratifiedEstimate est =
            estimateStratifiedTotal(strata, idxs, vals);

        CellSampleSection &sec = result.sample;
        sec.present = true;
        sec.intervalLen = sp.intervalLen;
        sec.numIntervals = plan.fullIntervals;
        sec.numStrata = strata.numStrata;
        sec.sampledIntervals = idxs.size();
        sec.tailInsts = tail_insts;
        sec.tailCycles = tail_cycles;
        sec.detailedAppInsts = detailed_app;
        sec.ffAppInsts = result.totals.appInsts - detailed_app;
        sec.estAppCycles =
            est.total + static_cast<double>(tail_cycles);
        sec.estTotalCycles =
            sec.estAppCycles +
            static_cast<double>(result.totals.osSimCycles +
                                result.totals.osPredCycles);
        sec.ciHalfWidth = est.ci95Half;
        sec.df = est.df;
        sec.hasCi = est.hasCi;
        InstCount total_insts = result.totals.totalInsts();
        InstCount detailed_insts =
            detailed_app + (result.totals.osInsts -
                            result.totals.osPredInsts);
        sec.detailedFraction =
            total_insts ? static_cast<double>(detailed_insts) /
                              static_cast<double>(total_insts)
                        : 0.0;
        sec.strata = est.strata;
    }
    auto end = std::chrono::steady_clock::now();
    result.wallSeconds =
        std::chrono::duration<double>(end - start).count();

    result.telemetry = telemetry.registry.snapshot();
    result.traceInfo = obs::summarize(telemetry.tracer);
    result.trace = telemetry.tracer.events();
    result.accuracy = telemetry.accuracy.snapshot();
    return result;
}

namespace
{

/**
 * Fill the derived fields: error vs the Full baseline at the same
 * (workload, L2, seed index), Eq. 10 estimates, and the
 * per-predictor-variant rollup. Runs after the pool join, in
 * cell-index order — part of the determinism contract.
 */
void
aggregate(SweepResult &result)
{
    for (CellResult &r : result.cells) {
        if (r.cell.mode == RunMode::Full || r.failed)
            continue;
        const CellResult *base =
            result.find(r.cell.workload, RunMode::Full, 0,
                        r.cell.l2Bytes, r.cell.seedIndex);
        if (base && !base->failed) {
            // Sampled cells are judged on their *estimate*: their
            // measured cycle count only covers the sampled
            // intervals.
            double measured =
                r.sample.present
                    ? r.sample.estTotalCycles
                    : static_cast<double>(r.totals.totalCycles());
            double reference =
                static_cast<double>(base->totals.totalCycles());
            r.cycleError = absError(measured, reference);
            r.signedCycleError =
                reference != 0.0
                    ? (measured - reference) / reference
                    : 0.0;
            r.hasBaseline = true;
            if (r.sample.present) {
                r.sample.hasOracle = true;
                r.sample.oracleError = r.cycleError;
            }
        }
        // The CI quantifies sampling noise on the estimated
        // quantity — application cycles — so the bracket claim is
        // judged on that quantity against the *unsampled twin* of
        // the cell (Sampled vs Full, SampledAccel vs Accelerated):
        // the twin shares the prediction-error and OS-reproduction
        // budgets, which the stratified estimator neither sees nor
        // claims to bound.
        if (!r.sample.present)
            continue;
        const CellResult *twin = result.find(
            r.cell.workload,
            r.cell.mode == RunMode::SampledAccel ? RunMode::Accelerated
                                                 : RunMode::Full,
            r.cell.predictorIndex, r.cell.l2Bytes, r.cell.seedIndex,
            r.cell.pollutionIndex);
        if (twin && !twin->failed) {
            r.sample.hasOracle = true;
            r.sample.withinCi =
                std::abs(r.sample.estAppCycles -
                         static_cast<double>(twin->totals.appCycles)) <=
                r.sample.ciHalfWidth;
        }
    }
    for (CellResult &r : result.cells) {
        if (r.cell.mode == RunMode::Accelerated && !r.failed)
            r.estSpeedupR133 = estimatedSpeedup(r.totals, 133.0);
    }

    result.summary.clear();
    for (std::size_t pi = 0; pi < result.spec.predictors.size();
         ++pi) {
        VariantSummary s;
        s.label = result.spec.predictors[pi].label;
        double err_sum = 0.0;
        std::uint64_t err_count = 0;
        double cov_sum = 0.0;
        double est_sum = 0.0;
        for (const CellResult &r : result.cells) {
            if (r.cell.mode != RunMode::Accelerated || r.failed ||
                r.cell.predictorIndex != pi)
                continue;
            ++s.cells;
            cov_sum += r.totals.coverage();
            est_sum += r.estSpeedupR133;
            if (r.hasBaseline) {
                err_sum += r.cycleError;
                ++err_count;
                if (r.cycleError > s.worstCycleError)
                    s.worstCycleError = r.cycleError;
            }
        }
        if (s.cells == 0)
            continue;
        s.meanCycleError =
            err_count ? err_sum / static_cast<double>(err_count)
                      : 0.0;
        s.meanCoverage = cov_sum / static_cast<double>(s.cells);
        s.meanEstSpeedupR133 =
            est_sum / static_cast<double>(s.cells);
        result.summary.push_back(std::move(s));
    }
}

} // namespace

CellResult
executeCell(const SweepSpec &spec, const SweepCell &cell,
            std::size_t trace_capacity,
            const std::map<std::string, std::string> *warm_profiles,
            const std::function<CellResult(
                const SweepSpec &, const SweepCell &, std::size_t)>
                &cell_runner)
{
    // Archived profiles warm-start predicting cells only; the
    // caller's map outlives the run, so the pointer stays stable.
    const std::string *warm = nullptr;
    if (warm_profiles && needsPredictor(cell.mode)) {
        auto it = warm_profiles->find(cell.workload);
        if (it != warm_profiles->end())
            warm = &it->second;
    }
    std::string error;
    try {
        return cell_runner ? cell_runner(spec, cell, trace_capacity)
                           : runCell(spec, cell, trace_capacity, warm);
    } catch (const std::exception &e) {
        error = e.what();
    } catch (...) {
        error = "unknown exception";
    }
    CellResult failed;
    failed.cell = cell;
    failed.failed = true;
    failed.error = std::move(error);
    return failed;
}

SweepResult
runSweep(const SweepSpec &spec, const RunnerOptions &options)
{
    SweepResult result;
    result.spec = spec;

    std::vector<SweepCell> cells = expandSweep(spec);
    result.cells.resize(cells.size());

    // Cache interaction happens entirely on this thread, in
    // cell-index order: keys, then lookups (incremental), and one
    // commit after the join — see the determinism contract.
    std::vector<std::string> keys;
    std::vector<bool> cached(cells.size(), false);
    if (options.cache) {
        keys = options.cache->cellKeys(spec, options.traceCapacity);
        if (options.incremental) {
            for (const SweepCell &cell : cells) {
                std::optional<CellResult> hit =
                    options.cache->fetch(keys[cell.index], cell,
                                         options.claimAware);
                if (hit) {
                    result.cells[cell.index] = std::move(*hit);
                    cached[cell.index] = true;
                }
            }
        } else {
            options.cache->noteMisses(cells.size());
        }
    }

    // One worker per uncached cell at most: more would only idle
    // (the pool clamps 0 to 1, for a fully cached sweep).
    unsigned threads = options.threads;
    if (threads == 0)
        threads = std::thread::hardware_concurrency();
    auto pending = static_cast<unsigned>(
        std::count(cached.begin(), cached.end(), false));
    threads = std::min(threads, pending);

    auto start = std::chrono::steady_clock::now();
    {
        WorkStealingPool pool(threads);
        result.threads = pool.numThreads();
        for (const SweepCell &cell : cells) {
            if (cached[cell.index])
                continue;
            // Each task owns exactly one preassigned result slot,
            // so completion order cannot affect the aggregate. A
            // throwing cell is captured into its own slot: the rest
            // of the sweep completes, and the failure is reported in
            // the results document instead of tearing down the pool.
            CellResult *slot = &result.cells[cell.index];
            pool.submit([slot, &spec, &options, cell] {
                *slot = executeCell(spec, cell, options.traceCapacity,
                                    options.warmProfiles,
                                    options.cellRunner);
            });
        }
        pool.wait();
    }
    auto end = std::chrono::steady_clock::now();
    result.wallSeconds =
        std::chrono::duration<double>(end - start).count();

    if (options.cache) {
        result.store.present = true;
        result.store.fingerprint = options.cache->fingerprint();
        result.store.cellKeys = keys;
        std::vector<std::pair<std::string, const CellResult *>>
            items;
        for (const SweepCell &cell : cells) {
            const CellResult &r = result.cells[cell.index];
            if (!cached[cell.index] && !r.failed)
                items.emplace_back(keys[cell.index], &r);
        }
        options.cache->commitResults(items);
    }

    aggregate(result);
    return result;
}

const CellResult *
SweepResult::find(const std::string &workload, RunMode mode,
                  std::size_t predictor_index,
                  std::uint64_t l2_bytes, std::uint64_t seed_index,
                  std::size_t pollution_index) const
{
    if (l2_bytes == 0 && !spec.l2Sizes.empty())
        l2_bytes = spec.l2Sizes.front();
    for (const CellResult &r : cells) {
        if (r.cell.workload == workload && r.cell.mode == mode &&
            r.cell.l2Bytes == l2_bytes &&
            r.cell.seedIndex == seed_index &&
            (!needsPredictor(mode) ||
             (r.cell.predictorIndex == predictor_index &&
              r.cell.pollutionIndex == pollution_index)))
            return &r;
    }
    return nullptr;
}

} // namespace osp
