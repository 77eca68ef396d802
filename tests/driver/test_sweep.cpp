/** @file Tests for the parallel sweep runner: expansion, seed
 *  derivation, thread-count determinism, equivalence with
 *  standalone runs, and the JSON results document. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "core/accelerator.hh"
#include "driver/experiments.hh"
#include "driver/sweep.hh"
#include "obs/snapshot_io.hh"
#include "util/hash.hh"
#include "workload/registry.hh"

namespace osp
{
namespace
{

/** Two workloads x two re-learning strategies, tiny work volume:
 *  large enough to exercise prediction, small enough for CI. */
SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.name = "tiny";
    spec.workloads = {"ab-rand", "du"};
    spec.modes = {RunMode::Full, RunMode::Accelerated};
    spec.predictors = {
        {"statistical",
         experimentPredictor(RelearnStrategy::Statistical)},
        {"eager", experimentPredictor(RelearnStrategy::Eager)},
    };
    spec.scale = 0.2;
    return spec;
}

TEST(CellSeed, IndexZeroIsBaseSeed)
{
    // Single-seed sweeps must replay the documented seed-42 bench
    // results exactly.
    EXPECT_EQ(cellSeed(42, 0), 42u);
    EXPECT_EQ(cellSeed(7, 0), 7u);
}

TEST(CellSeed, FurtherIndicesAreDistinct)
{
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 100; ++i)
        seeds.insert(cellSeed(42, i));
    EXPECT_EQ(seeds.size(), 100u);
}

TEST(ExpandSweep, BaselinesEmittedOncePerWorkload)
{
    // 2 workloads x (1 full + 2 accelerated variants): baselines
    // must not be duplicated per predictor.
    auto cells = expandSweep(tinySpec());
    ASSERT_EQ(cells.size(), 6u);
    int full = 0, accel = 0;
    for (const auto &cell : cells) {
        if (cell.mode == RunMode::Full)
            ++full;
        else
            ++accel;
        EXPECT_EQ(cell.index, &cell - cells.data());
        EXPECT_EQ(cell.seed, 42u);
    }
    EXPECT_EQ(full, 2);
    EXPECT_EQ(accel, 4);
}

TEST(ExpandSweep, ComparableCellsShareSeeds)
{
    SweepSpec spec = tinySpec();
    spec.numSeeds = 3;
    auto cells = expandSweep(spec);
    EXPECT_EQ(cells.size(), 18u);
    // Each (workload, seed index) group: one baseline + two
    // accelerated cells, all with the same machine seed.
    for (const auto &a : cells) {
        for (const auto &b : cells) {
            if (a.workload == b.workload &&
                a.seedIndex == b.seedIndex) {
                EXPECT_EQ(a.seed, b.seed);
            }
        }
    }
}

TEST(ExpandSweep, RejectsInvalidSpecs)
{
    SweepSpec spec = tinySpec();
    spec.workloads = {"no-such-workload"};
    EXPECT_DEATH(expandSweep(spec), "");

    spec = tinySpec();
    spec.predictors.clear();
    EXPECT_DEATH(expandSweep(spec), "");

    spec = tinySpec();
    spec.numSeeds = 0;
    EXPECT_DEATH(expandSweep(spec), "");
}

TEST(RunSweep, ThreadCountInvariance)
{
    // The tentpole contract: the canonical JSON document is
    // byte-identical for 1 worker and 8 workers at the same seed.
    SweepSpec spec = tinySpec();

    RunnerOptions serial;
    serial.threads = 1;
    RunnerOptions parallel;
    parallel.threads = 8;

    JsonOptions canonical;
    canonical.includeTiming = false;

    std::ostringstream os1, os8;
    writeResultsJson(os1, runSweep(spec, serial), canonical);
    writeResultsJson(os8, runSweep(spec, parallel), canonical);
    EXPECT_EQ(os1.str(), os8.str());
}

TEST(RunSweep, AutoThreadCountIsRecordedResolved)
{
    // threads = 0 means "pick hardware_concurrency()"; the timing
    // section must record what was actually used, not the 0.
    SweepSpec spec = tinySpec();
    spec.workloads = {"du"};

    RunnerOptions opts;
    opts.threads = 0;
    opts.cellRunner = [](const SweepSpec &, const SweepCell &cell,
                         std::size_t) {
        CellResult r;
        r.cell = cell;
        return r;
    };
    SweepResult result = runSweep(spec, opts);

    unsigned hw = std::thread::hardware_concurrency();
    EXPECT_GE(result.threads, 1u);
    if (hw != 0) {
        EXPECT_EQ(result.threads,
                  std::min<unsigned>(hw, result.cells.size()));
    }

    JsonValue doc = sweepToJson(result);
    EXPECT_EQ(doc["timing"]["threads"].asUint(), result.threads);
}

TEST(RunSweep, ThreadsNeverExceedCellCount)
{
    // Threads beyond the number of cells would only idle.
    SweepSpec spec = tinySpec();
    spec.workloads = {"du"};
    spec.predictors.resize(1);
    ASSERT_EQ(expandSweep(spec).size(), 2u);

    RunnerOptions opts;
    opts.threads = 16;
    opts.cellRunner = [](const SweepSpec &, const SweepCell &cell,
                         std::size_t) {
        CellResult r;
        r.cell = cell;
        return r;
    };
    EXPECT_EQ(runSweep(spec, opts).threads, 2u);
}

TEST(RunSweep, EveryCellRunsOnceInItsOwnSlot)
{
    // Eight threads share one cell index: each cell must be taken
    // exactly once and land in the slot of its own index.
    SweepSpec spec = tinySpec();
    spec.numSeeds = 20;
    std::size_t n = expandSweep(spec).size();
    ASSERT_GE(n, 100u);

    std::vector<std::atomic<int>> runs(n);
    RunnerOptions opts;
    opts.threads = 8;
    opts.cellRunner = [&runs](const SweepSpec &, const SweepCell &cell,
                              std::size_t) {
        runs[cell.index].fetch_add(1);
        CellResult r;
        r.cell = cell;
        return r;
    };
    SweepResult result = runSweep(spec, opts);

    EXPECT_EQ(result.threads, 8u);
    ASSERT_EQ(result.cells.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "cell " << i;
        EXPECT_EQ(result.cells[i].cell.index, i);
    }
}

TEST(RunSweep, CellsMatchStandaloneRuns)
{
    SweepSpec spec = tinySpec();
    RunnerOptions opts;
    opts.threads = 4;
    SweepResult sweep = runSweep(spec, opts);
    ASSERT_EQ(sweep.cells.size(), 6u);

    for (const auto &res : sweep.cells) {
        // runCell() is the exact per-worker construction.
        CellResult solo = runCell(spec, res.cell);
        EXPECT_EQ(res.totals.totalCycles(),
                  solo.totals.totalCycles());
        EXPECT_EQ(res.totals.totalInsts(), solo.totals.totalInsts());
        EXPECT_EQ(res.hasStats, solo.hasStats);
        EXPECT_EQ(res.stats.predictedRuns, solo.stats.predictedRuns);
        EXPECT_EQ(res.stats.relearnEvents, solo.stats.relearnEvents);
    }

    // And runCell() itself matches a hand-built Machine+Accelerator.
    const CellResult *accel_cell =
        sweep.find("du", RunMode::Accelerated, 1);
    ASSERT_NE(accel_cell, nullptr);
    MachineConfig cfg = spec.baseConfig;
    cfg.seed = 42;
    cfg.hier.l2.sizeBytes = accel_cell->cell.l2Bytes;
    cfg.pollutionPolicy = PollutionPolicy::Footprint;
    auto machine = makeMachine("du", cfg, spec.scale);
    Accelerator accel(spec.predictors[1].params);
    machine->setController(&accel);
    const RunTotals &manual = machine->run();
    EXPECT_EQ(accel_cell->totals.totalCycles(),
              manual.totalCycles());
    EXPECT_EQ(accel_cell->totals.coverage(), manual.coverage());
}

TEST(RunSweep, AggregatorDerivesErrorsAndSummary)
{
    SweepSpec spec = tinySpec();
    SweepResult sweep = runSweep(spec);

    for (const auto &res : sweep.cells) {
        if (res.cell.mode == RunMode::Full) {
            // Baselines are never compared against themselves.
            EXPECT_FALSE(res.hasBaseline);
            EXPECT_DOUBLE_EQ(res.cycleError, 0.0);
        } else {
            EXPECT_TRUE(res.hasBaseline);
            const CellResult *base = sweep.find(
                res.cell.workload, RunMode::Full);
            ASSERT_NE(base, nullptr);
            EXPECT_DOUBLE_EQ(
                res.cycleError,
                absError(static_cast<double>(
                             res.totals.totalCycles()),
                         static_cast<double>(
                             base->totals.totalCycles())));
            EXPECT_GT(res.estSpeedupR133, 1.0);
        }
    }

    ASSERT_EQ(sweep.summary.size(), 2u);
    EXPECT_EQ(sweep.summary[0].label, "statistical");
    EXPECT_EQ(sweep.summary[1].label, "eager");
    for (const auto &variant : sweep.summary) {
        EXPECT_EQ(variant.cells, 2u);
        EXPECT_GE(variant.worstCycleError, variant.meanCycleError);
        EXPECT_GT(variant.meanCoverage, 0.0);
    }
}

TEST(RunSweep, FindLooksUpByCoordinates)
{
    SweepSpec spec = tinySpec();
    SweepResult sweep = runSweep(spec);

    const CellResult *cell =
        sweep.find("ab-rand", RunMode::Accelerated, 1);
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(cell->cell.workload, "ab-rand");
    EXPECT_EQ(cell->cell.predictorIndex, 1u);

    EXPECT_EQ(sweep.find("iperf", RunMode::Full), nullptr);
    EXPECT_EQ(sweep.find("ab-rand", RunMode::AppOnly), nullptr);
    EXPECT_EQ(sweep.find("ab-rand", RunMode::Accelerated, 2),
              nullptr);
}

TEST(RunSweep, SampledAccelVariantsStayApart)
{
    // SampledAccel cells expand over the predictor axis exactly as
    // Accelerated ones do, so lookups and the accuracy report must
    // tell their variants apart.
    SweepSpec spec = tinySpec();
    spec.workloads = {"du"};
    spec.modes = {RunMode::Accelerated};
    for (PredictorVariant &p : spec.predictors)
        p.params.learningWindow = 20;
    SampleParams sample;
    sample.intervalLen = 1000;
    sample.rate = 0.3;
    applySweepSampling(spec, sample);
    SweepResult sweep = runSweep(spec);

    for (std::size_t pi = 0; pi < spec.predictors.size(); ++pi) {
        const CellResult *cell =
            sweep.find("du", RunMode::SampledAccel, pi);
        ASSERT_NE(cell, nullptr);
        EXPECT_EQ(cell->cell.mode, RunMode::SampledAccel);
        EXPECT_EQ(cell->cell.predictorIndex, pi);
    }
    EXPECT_EQ(sweep.find("du", RunMode::SampledAccel, 2), nullptr);

    // The report has one row per ledger the JSON section lists,
    // sampled-accel ledgers included and labelled as such.
    JsonValue doc = sweepToJson(sweep);
    std::size_t ledgers = doc["accuracy"]["cells"].size();
    std::size_t sampled_ledgers = 0;
    for (const JsonValue &c : doc["accuracy"]["cells"].elements())
        sampled_ledgers +=
            sweep.cells[c["index"].asUint()].cell.mode ==
            RunMode::SampledAccel;
    ASSERT_EQ(sampled_ledgers, spec.predictors.size());

    std::ostringstream os;
    writeAccuracyReport(os, sweep);
    std::istringstream lines(os.str());
    std::size_t rows = 0;
    std::size_t sampled_rows = 0;
    for (std::string line; std::getline(lines, line);) {
        bool row = line.rfind("du", 0) == 0 &&
                   (line.find("statistical") != std::string::npos ||
                    line.find("eager") != std::string::npos);
        rows += row;
        sampled_rows +=
            row && line.rfind("du/sampled-accel", 0) == 0;
    }
    EXPECT_EQ(rows, ledgers);
    EXPECT_EQ(sampled_rows, sampled_ledgers);
}

TEST(SweepJson, DocumentShapeAndRoundTrip)
{
    SweepSpec spec = tinySpec();
    SweepResult sweep = runSweep(spec);

    JsonOptions canonical;
    canonical.includeTiming = false;
    std::ostringstream os;
    writeResultsJson(os, sweep, canonical);

    bool ok = false;
    std::string error;
    JsonValue doc = JsonValue::parse(os.str(), &ok, &error);
    ASSERT_TRUE(ok) << error;

    EXPECT_EQ(doc["schema"].asString(), "ospredict-sweep-v1");
    EXPECT_EQ(doc["sweep"]["name"].asString(), "tiny");
    EXPECT_EQ(doc["sweep"]["base_seed"].asUint(), 42u);
    ASSERT_EQ(doc["cells"].size(), sweep.cells.size());
    EXPECT_EQ(doc.find("timing"), nullptr);

    for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
        const JsonValue &cell = doc["cells"].at(i);
        const CellResult &res = sweep.cells[i];
        EXPECT_EQ(cell["config"]["index"].asUint(), i);
        EXPECT_EQ(cell["config"]["workload"].asString(),
                  res.cell.workload);
        EXPECT_EQ(cell.find("wall_s"), nullptr);
        const JsonValue &totals = cell["metrics"]["totals"];
        EXPECT_EQ(totals["total_cycles"].asUint(),
                  res.totals.totalCycles());
        EXPECT_DOUBLE_EQ(totals["coverage"].asDouble(),
                         res.totals.coverage());
        if (res.hasStats) {
            EXPECT_EQ(cell["metrics"]["predictor_stats"]
                          ["predicted_runs"]
                              .asUint(),
                      res.stats.predictedRuns);
        }
    }

    ASSERT_EQ(doc["summary"]["predictors"].size(), 2u);
    EXPECT_EQ(doc["summary"]["predictors"].at(0)["predictor"]
                  .asString(),
              "statistical");

    // With timing enabled the volatile fields appear.
    std::ostringstream timed;
    writeResultsJson(timed, sweep, JsonOptions{});
    JsonValue full = JsonValue::parse(timed.str(), &ok, &error);
    ASSERT_TRUE(ok) << error;
    EXPECT_NE(full.find("timing"), nullptr);
    EXPECT_NE(full["cells"].at(0).find("wall_s"), nullptr);
}

TEST(RunSweep, TelemetryPreservesThreadCountInvariance)
{
    // The tentpole extension of the determinism contract: with the
    // telemetry section populated AND event tracing enabled, the
    // canonical document must still be byte-identical across thread
    // counts.
    SweepSpec spec = tinySpec();

    RunnerOptions serial;
    serial.threads = 1;
    serial.traceCapacity = 512;
    RunnerOptions parallel;
    parallel.threads = 8;
    parallel.traceCapacity = 512;

    JsonOptions canonical;
    canonical.includeTiming = false;

    SweepResult r1 = runSweep(spec, serial);
    SweepResult r8 = runSweep(spec, parallel);

    std::ostringstream os1, os8;
    writeResultsJson(os1, r1, canonical);
    writeResultsJson(os8, r8, canonical);
    EXPECT_EQ(os1.str(), os8.str());

    // The chrome trace dump is part of the same contract.
    std::ostringstream t1, t8;
    writeChromeTrace(t1, r1);
    writeChromeTrace(t8, r8);
    EXPECT_EQ(t1.str(), t8.str());
    EXPECT_NE(t1.str().find("traceEvents"), std::string::npos);
}

/** The histogram (@p component, @p name) of @p m; nullptr when
 *  absent. */
const obs::HistogramEntry *
findHistogram(const obs::MetricsSnapshot &m, std::string_view component,
              std::string_view name)
{
    for (const auto &h : m.histograms)
        if (h.component == component && h.name == name)
            return &h;
    return nullptr;
}

/**
 * Check that every machine.* and predictor.<service>.* instrument
 * of @p r's telemetry equals what it is published from: the run
 * totals, the aggregate predictor stats, the sample section, the
 * PLT profile and the per-level cache statistics.
 */
void
expectTelemetryMatchesFields(const CellResult &r)
{
    const obs::MetricsSnapshot &m = r.telemetry;
    const RunTotals &t = r.totals;
    const std::string what = r.cell.workload + " " +
                             runModeName(r.cell.mode);
    auto machine = [&](const char *name) {
        return m.counterValue("machine", name);
    };
    EXPECT_EQ(machine("services_detailed"), t.osSimulated) << what;
    EXPECT_EQ(machine("services_predicted"), t.osPredicted) << what;
    const obs::HistogramEntry *service_insts =
        findHistogram(m, "machine", "service_insts");
    ASSERT_NE(service_insts, nullptr) << what;
    EXPECT_EQ(service_insts->count, t.osInvocations) << what;
    EXPECT_EQ(service_insts->sum, t.osInsts) << what;

    const CellSampleSection &sec = r.sample;
    EXPECT_EQ(machine("intervals_sampled"),
              sec.present ? sec.sampledIntervals + (sec.tailInsts ? 1 : 0)
                          : 0u)
        << what;
    EXPECT_EQ(machine("sample_detailed_insts"),
              sec.present ? sec.detailedAppInsts : 0u)
        << what;
    EXPECT_EQ(machine("sample_ff_insts"),
              sec.present ? sec.ffAppInsts : 0u)
        << what;

    // Footprint pollution fills only through the injected paths, so
    // the slots it reports are the caches' injected fills.
    std::uint64_t injected = 0;
    for (const char *level : {"mem.l1i", "mem.l1d", "mem.l2"})
        injected += m.counterValue(level, "injected_fills");
    EXPECT_EQ(machine("pollution_slots_affected"), injected) << what;
    EXPECT_LE(machine("footprint_install_fills"),
              machine("pollution_slots_affected"))
        << what;

    // Per-service predictor counts sum to the aggregate stats; the
    // cluster gauge is the service's table in the saved profile.
    std::map<std::string, std::uint64_t> sums;
    std::map<std::string, std::uint64_t> created;
    for (const auto &c : m.counters) {
        if (c.component.rfind("predictor.", 0) != 0)
            continue;
        sums[c.name] += c.value;
        if (c.name == "clusters_created")
            created[c.component] = c.value;
    }
    EXPECT_EQ(sums["predicted_runs"], r.stats.predictedRuns) << what;
    EXPECT_EQ(sums["outliers"], r.stats.outliers) << what;
    EXPECT_EQ(sums["relearn_events"], r.stats.relearnEvents) << what;
    EXPECT_EQ(sums["audits"], r.stats.audits) << what;
    EXPECT_EQ(sums["audit_failures"], r.stats.auditFailures) << what;
    EXPECT_EQ(sums["drift_resets"], r.stats.driftResets) << what;
    EXPECT_EQ(sums["decide_emulate"], r.stats.predictedRuns) << what;
    if (r.hasStats) {
        EXPECT_EQ(sums["decide_detail"] + sums["decide_emulate"],
                  t.osInvocations)
            << what;
    }
    std::map<std::string, double> profile_clusters;
    std::istringstream profile(r.pltProfile);
    for (std::string word; profile >> word;) {
        int type = 0;
        std::size_t count = 0;
        if (word == "service" && profile >> type >> count)
            profile_clusters[std::string("predictor.") +
                             serviceName(
                                 static_cast<ServiceType>(type))] =
                static_cast<double>(count);
    }
    std::uint64_t predicted_insts = 0;
    for (const auto &g : m.gauges) {
        ASSERT_EQ(g.name, "plt_clusters") << what;
        EXPECT_EQ(g.value, profile_clusters[g.component])
            << what << " " << g.component;
        // A cold run's table only grows, one cluster per creation.
        EXPECT_EQ(g.value, static_cast<double>(created[g.component]))
            << what << " " << g.component;
        const obs::HistogramEntry *h =
            findHistogram(m, g.component, "predicted_insts");
        ASSERT_NE(h, nullptr) << what << " " << g.component;
        EXPECT_EQ(h->count,
                  m.counterValue(g.component, "predicted_runs"))
            << what << " " << g.component;
        predicted_insts += h->sum;
    }
    EXPECT_EQ(predicted_insts, t.osPredInsts) << what;
}

TEST(RunSweep, CellsCarryPopulatedTelemetry)
{
    SweepSpec spec = tinySpec();
    RunnerOptions opts;
    opts.threads = 4;
    opts.traceCapacity = 256;
    SweepResult sweep = runSweep(spec, opts);

    for (const CellResult &r : sweep.cells) {
        ASSERT_FALSE(r.failed);
        // Every cell publishes machine + cache instruments.
        EXPECT_FALSE(r.telemetry.empty());
        EXPECT_GT(r.telemetry.counterValue("mem.l1d",
                                           "accesses_app"),
                  0u);
        EXPECT_EQ(r.traceInfo.capacity, 256u);
        if (r.cell.mode == RunMode::Accelerated) {
            // Predictors decide every post-warmup invocation.
            std::uint64_t decided = 0;
            for (const auto &c : r.telemetry.counters) {
                if (c.name == "decide_detail" ||
                    c.name == "decide_emulate")
                    decided += c.value;
            }
            EXPECT_GT(decided, 0u);
            EXPECT_GT(r.traceInfo.recorded, 0u);
            EXPECT_EQ(r.trace.size(),
                      r.traceInfo.recorded - r.traceInfo.dropped);
        }
        expectTelemetryMatchesFields(r);
    }
}

TEST(RunSweep, TelemetryIsPinned)
{
    // The encoded telemetry snapshot of six fig13 smoke cells,
    // hashed. Any change to what is counted, where, or how it is
    // published shows here; every number also appears in
    // expectTelemetryMatchesFields's cross-checks. The Full and
    // Sampled cells pin the cache counters of the timing engines
    // and of functional warming.
    struct Pin
    {
        const char *workload;
        RunMode mode;
        const char *hash;
    };
    const Pin pins[] = {
        {"ab-seq", RunMode::Full, "e880aec52d329958"},
        {"ab-seq", RunMode::Sampled, "8f2a27b835eecb2f"},
        {"ab-seq", RunMode::Accelerated, "3fa7d6f8e13876f0"},
        {"ab-seq", RunMode::SampledAccel, "3301fbbbafc1f996"},
        {"du", RunMode::Accelerated, "e05bc91afdcfd0f2"},
        {"du", RunMode::SampledAccel, "5d688b3460bbb43d"},
    };
    SweepSpec spec = makeNamedSweep("fig13", 1.0 / 20.0, true);
    const std::vector<SweepCell> cells = expandSweep(spec);
    for (const Pin &pin : pins) {
        const SweepCell *cell = nullptr;
        for (const SweepCell &c : cells)
            if (c.workload == pin.workload && c.mode == pin.mode)
                cell = &c;
        const std::string what =
            std::string(pin.workload) + " " + runModeName(pin.mode);
        ASSERT_NE(cell, nullptr) << what;
        const CellResult r = runCell(spec, *cell);
        const std::string encoded =
            obs::metricsSnapshotToJson(r.telemetry).dump(-1);
        EXPECT_EQ(StableHash().str(encoded).hex(), pin.hash) << what;
        expectTelemetryMatchesFields(r);
    }
}

TEST(RunSweep, AttachedTelemetryChangesNoOutcome)
{
    // Observational purity: a traced cell and a bare cell simulate
    // the exact same cycles.
    SweepSpec spec = tinySpec();
    auto cells = expandSweep(spec);
    for (const SweepCell &cell : cells) {
        CellResult bare = runCell(spec, cell, 0);
        CellResult traced = runCell(spec, cell, 1024);
        EXPECT_EQ(bare.totals.totalCycles(),
                  traced.totals.totalCycles());
        EXPECT_EQ(bare.totals.totalInsts(),
                  traced.totals.totalInsts());
        EXPECT_EQ(bare.stats.predictedRuns,
                  traced.stats.predictedRuns);
    }
}

TEST(RunSweep, WorkerExceptionsAreCapturedPerCell)
{
    SweepSpec spec = tinySpec();
    RunnerOptions opts;
    opts.threads = 4;
    opts.cellRunner = [](const SweepSpec &s, const SweepCell &c,
                         std::size_t trace_capacity) {
        if (c.workload == "du" && c.mode == RunMode::Accelerated)
            throw std::runtime_error("synthetic cell failure");
        return runCell(s, c, trace_capacity);
    };
    SweepResult sweep = runSweep(spec, opts);
    ASSERT_EQ(sweep.cells.size(), 6u);

    std::size_t failed = 0;
    for (const CellResult &r : sweep.cells) {
        if (r.cell.workload == "du" &&
            r.cell.mode == RunMode::Accelerated) {
            EXPECT_TRUE(r.failed);
            EXPECT_EQ(r.error, "synthetic cell failure");
            // The slot still identifies its cell.
            EXPECT_EQ(r.cell.index, &r - sweep.cells.data());
            ++failed;
        } else {
            EXPECT_FALSE(r.failed);
            EXPECT_GT(r.totals.totalCycles(), 0u);
        }
    }
    EXPECT_EQ(failed, 2u);

    // Failed accelerated cells drop out of the variant rollup...
    for (const VariantSummary &s : sweep.summary)
        EXPECT_EQ(s.cells, 1u);

    // ...and the document reports them.
    std::ostringstream os;
    JsonOptions canonical;
    canonical.includeTiming = false;
    writeResultsJson(os, sweep, canonical);
    bool ok = false;
    std::string error;
    JsonValue doc = JsonValue::parse(os.str(), &ok, &error);
    ASSERT_TRUE(ok) << error;
    ASSERT_EQ(doc["summary"]["failed_cells"].size(), 2u);
    bool found_error = false;
    for (std::size_t i = 0; i < doc["cells"].size(); ++i) {
        const JsonValue &cell = doc["cells"].at(i);
        if (cell.find("error")) {
            EXPECT_EQ(cell["error"].asString(),
                      "synthetic cell failure");
            EXPECT_EQ(cell.find("metrics"), nullptr);
            found_error = true;
        }
    }
    EXPECT_TRUE(found_error);
}

TEST(RunSweep, FailedBaselineLeavesDependentsWithoutError)
{
    // A failed Full baseline must not feed garbage into cycleError.
    SweepSpec spec = tinySpec();
    RunnerOptions opts;
    opts.cellRunner = [](const SweepSpec &s, const SweepCell &c,
                         std::size_t trace_capacity) {
        if (c.mode == RunMode::Full)
            throw std::runtime_error("baseline down");
        return runCell(s, c, trace_capacity);
    };
    SweepResult sweep = runSweep(spec, opts);
    for (const CellResult &r : sweep.cells) {
        if (r.cell.mode == RunMode::Accelerated) {
            EXPECT_FALSE(r.failed);
            EXPECT_FALSE(r.hasBaseline);
        }
    }
}

TEST(SweepJson, TelemetrySectionShape)
{
    SweepSpec spec = tinySpec();
    RunnerOptions opts;
    opts.traceCapacity = 128;
    SweepResult sweep = runSweep(spec, opts);

    std::ostringstream os;
    JsonOptions canonical;
    canonical.includeTiming = false;
    writeResultsJson(os, sweep, canonical);
    bool ok = false;
    std::string error;
    JsonValue doc = JsonValue::parse(os.str(), &ok, &error);
    ASSERT_TRUE(ok) << error;

    // Top-level rollup.
    const JsonValue *telemetry = doc.find("telemetry");
    ASSERT_NE(telemetry, nullptr);
    EXPECT_EQ((*telemetry)["schema"].asString(),
              "ospredict-telemetry-v1");
    EXPECT_EQ((*telemetry)["instrumented_cells"].asUint(),
              sweep.cells.size());
    std::uint64_t sum = 0;
    for (const CellResult &r : sweep.cells)
        sum += r.telemetry.counterValue("machine",
                                        "services_predicted");
    EXPECT_EQ((*telemetry)["counters"]["machine.services_predicted"]
                  .asUint(),
              sum);

    // Per-cell section.
    for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
        const JsonValue &cell = doc["cells"].at(i);
        const JsonValue *t = cell.find("telemetry");
        ASSERT_NE(t, nullptr);
        EXPECT_EQ((*t)["trace"]["capacity"].asUint(), 128u);
        EXPECT_EQ((*t)["counters"]["mem.l1d.accesses_app"].asUint(),
                  sweep.cells[i].telemetry.counterValue(
                      "mem.l1d", "accesses_app"));
    }
}

/** fig08's ab-seq column at smoke scale: the cheapest cell pair
 *  that reaches the prediction phase with audit samples AND has a
 *  full-detail oracle baseline to cross-check against. */
SweepSpec
accuracySpec()
{
    SweepSpec spec = makeNamedSweep("fig08", 0.05, true);
    spec.workloads = {"ab-seq"};
    spec.predictors.resize(1);  // statistical only
    return spec;
}

TEST(SweepAccuracy, SectionShapeAndLedgerConsistency)
{
    SweepSpec spec = accuracySpec();
    SweepResult sweep = runSweep(spec);

    std::ostringstream os;
    JsonOptions canonical;
    canonical.includeTiming = false;
    writeResultsJson(os, sweep, canonical);
    bool ok = false;
    std::string error;
    JsonValue doc = JsonValue::parse(os.str(), &ok, &error);
    ASSERT_TRUE(ok) << error;

    const JsonValue *accuracy = doc.find("accuracy");
    ASSERT_NE(accuracy, nullptr);
    EXPECT_EQ((*accuracy)["schema"].asString(),
              "ospredict-accuracy-v1");

    // Exactly the accelerated ab-seq cell (non-vacuously: it must
    // have reached prediction and taken audit samples).
    ASSERT_EQ((*accuracy)["cells"].size(), 1u);
    const JsonValue &cell = (*accuracy)["cells"].at(0);
    EXPECT_EQ(cell["workload"].asString(), "ab-seq");
    const JsonValue &ledger = cell["ledger"];
    EXPECT_GT(ledger["predictions"].asUint(), 0u);
    ASSERT_GE(ledger["audits"].asUint(), 2u);
    EXPECT_GT(ledger["total_cycles"].asUint(),
              ledger["predicted_cycles"].asUint());
    ASSERT_NE(ledger.find("audit_err"), nullptr);
    EXPECT_LE(ledger["audit_err"]["n"].asUint(),
              ledger["audits"].asUint());
    EXPECT_GT(ledger["clusters"].size(), 0u);

    // The serialized ledger mirrors the in-memory snapshot.
    const CellResult *accel =
        sweep.find("ab-seq", RunMode::Accelerated);
    ASSERT_NE(accel, nullptr);
    obs::AccuracyRollup roll = rollupAccuracy(accel->accuracy);
    EXPECT_EQ(ledger["predictions"].asUint(), roll.predictions);
    EXPECT_EQ(ledger["audits"].asUint(), roll.audits);
    ASSERT_EQ(ledger["clusters"].size(),
              accel->accuracy.entries.size());

    // Per-service rollup sums match the per-cluster entries.
    std::uint64_t svc_audits = 0;
    const JsonValue &services = (*accuracy)["services"];
    ASSERT_GT(services.size(), 0u);
    for (std::size_t i = 0; i < services.size(); ++i)
        svc_audits += services.at(i)["audits"].asUint();
    EXPECT_EQ(svc_audits, roll.audits);
}

TEST(SweepAccuracy, OracleErrorFallsWithinAuditEstimateCi)
{
    // The acceptance cross-check at CI scale: the audit-estimated
    // end-to-end cycle error must agree with the offline oracle
    // (full-detail baseline) within its own reported 95% CI.
    SweepSpec spec = accuracySpec();
    SweepResult sweep = runSweep(spec);

    const CellResult *accel =
        sweep.find("ab-seq", RunMode::Accelerated);
    ASSERT_NE(accel, nullptr);
    ASSERT_TRUE(accel->hasBaseline);
    obs::AccuracyRollup roll = rollupAccuracy(accel->accuracy);
    ASSERT_TRUE(roll.hasEstimate);
    ASSERT_TRUE(roll.hasCi);
    EXPECT_LE(std::fabs(accel->signedCycleError -
                        roll.estRelTotalErr),
              roll.estCi95);
    // signedCycleError's magnitude is the reported cycleError.
    EXPECT_DOUBLE_EQ(std::fabs(accel->signedCycleError),
                     accel->cycleError);

    // And the document agrees with the in-memory verdict.
    std::ostringstream os;
    JsonOptions canonical;
    canonical.includeTiming = false;
    writeResultsJson(os, sweep, canonical);
    bool ok = false;
    std::string error;
    JsonValue doc = JsonValue::parse(os.str(), &ok, &error);
    ASSERT_TRUE(ok) << error;
    const JsonValue &oracle =
        doc["accuracy"]["cells"].at(0)["oracle"];
    EXPECT_TRUE(oracle["within_ci"].asBool());
}

TEST(SweepAccuracy, ReportRendersCellAndBudgetTables)
{
    SweepSpec spec = accuracySpec();
    SweepResult sweep = runSweep(spec);

    std::ostringstream os;
    writeAccuracyReport(os, sweep);
    const std::string report = os.str();
    EXPECT_NE(report.find("accuracy report"), std::string::npos);
    EXPECT_NE(report.find("error budget"), std::string::npos);
    EXPECT_NE(report.find("ab-seq"), std::string::npos);
    EXPECT_NE(report.find("oracle_err"), std::string::npos);

    // A sweep with no accelerated predictions reports that fact
    // instead of emitting empty tables.
    SweepSpec bare = accuracySpec();
    bare.modes = {RunMode::Full};
    SweepResult none = runSweep(bare);
    std::ostringstream empty;
    writeAccuracyReport(empty, none);
    EXPECT_NE(empty.str().find("no accelerated cell"),
              std::string::npos);
}

TEST(NamedSweeps, FactoriesMatchTheBenchExperiments)
{
    EXPECT_EQ(namedSweeps().size(), 5u);
    EXPECT_EQ(expandSweep(fig08Sweep()).size(), 15u);
    EXPECT_EQ(expandSweep(fig10Sweep()).size(), 30u);
    EXPECT_EQ(expandSweep(fig11Sweep()).size(), 30u);
    EXPECT_EQ(expandSweep(table2Sweep()).size(), 10u);
    EXPECT_EQ(expandSweep(fig13Sweep()).size(), 20u);

    // Smoke multiplier shrinks work volume, not cell count.
    SweepSpec smoke = makeNamedSweep("fig08", 0.05, true);
    EXPECT_TRUE(smoke.smoke);
    EXPECT_LT(smoke.scale, fig08Sweep().scale);
    EXPECT_EQ(expandSweep(smoke).size(), 15u);
}

} // namespace
} // namespace osp
