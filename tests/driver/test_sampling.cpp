/** @file Tests for sampled-simulation sweeps: spec expansion and
 *  validation, thread-count byte-determinism of the sample section,
 *  sampled-cell codec round-trips with stale-schema rejection, warm
 *  starts of sampled predicting cells, and the CI-bracket guarantee
 *  of the stratified estimator on the five OS-intensive workloads. */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "driver/cell_cache.hh"
#include "driver/cell_io.hh"
#include "driver/experiments.hh"
#include "driver/sweep.hh"
#include "store/page_store.hh"
#include "util/json.hh"
#include "workload/registry.hh"

namespace osp
{
namespace
{

/** Two workloads, all four corners, tiny work volume. */
SweepSpec
sampledSpec()
{
    SweepSpec spec;
    spec.name = "sampled-tiny";
    spec.workloads = {"ab-rand", "du"};
    spec.modes = {RunMode::Full, RunMode::Accelerated};
    PredictorParams pred = experimentPredictor();
    pred.learningWindow = 10;
    spec.predictors = {{"statistical", pred}};
    spec.scale = 0.2;
    SampleParams sample;
    sample.intervalLen = 1000;
    sample.strata = 3;
    sample.rate = 0.3;
    applySweepSampling(spec, sample);
    return spec;
}

std::string
canonicalJson(const SweepResult &result)
{
    JsonOptions jopts;
    jopts.includeTiming = false;
    std::ostringstream os;
    writeResultsJson(os, result, jopts);
    return os.str();
}

TEST(SampledSpec, ApplyAddsOneSampledModePerBaseline)
{
    SweepSpec spec = sampledSpec();
    ASSERT_EQ(spec.modes.size(), 4u);
    EXPECT_EQ(spec.modes[2], RunMode::Sampled);
    EXPECT_EQ(spec.modes[3], RunMode::SampledAccel);
    EXPECT_TRUE(spec.sample.enabled);

    // Applying twice adds nothing.
    applySweepSampling(spec, spec.sample);
    EXPECT_EQ(spec.modes.size(), 4u);

    // Without an Accelerated baseline only Sampled appears.
    SweepSpec bare;
    bare.name = "bare";
    bare.workloads = {"du"};
    bare.modes = {RunMode::Full};
    SampleParams sample;
    applySweepSampling(bare, sample);
    ASSERT_EQ(bare.modes.size(), 2u);
    EXPECT_EQ(bare.modes[1], RunMode::Sampled);
}

TEST(SampledSpec, ExpansionAndValidation)
{
    SweepSpec spec = sampledSpec();
    // 2 workloads x (full + accel + sampled + sampled-accel).
    EXPECT_EQ(expandSweep(spec).size(), 8u);

    SweepSpec bad = sampledSpec();
    bad.sample.rate = 0.0;
    EXPECT_DEATH(expandSweep(bad), "rate");

    bad = sampledSpec();
    bad.sample.enabled = false;
    EXPECT_DEATH(expandSweep(bad), "sample");

    bad = sampledSpec();
    bad.baseConfig.level = DetailLevel::Emulate;
    EXPECT_DEATH(expandSweep(bad), "detail");
}

TEST(SampledSweep, ThreadCountInvarianceIncludesSampleSection)
{
    SweepSpec spec = sampledSpec();
    RunnerOptions opts;
    opts.threads = 1;
    SweepResult one = runSweep(spec, opts);
    opts.threads = 4;
    SweepResult four = runSweep(spec, opts);

    std::string bytes = canonicalJson(one);
    EXPECT_EQ(bytes, canonicalJson(four));
    EXPECT_NE(bytes.find("\"ospredict-sample-v1\""),
              std::string::npos);
}

TEST(SampledSweep, EstimateTracksOracleAndShrinksDetailedWork)
{
    SweepSpec spec = sampledSpec();
    SweepResult sweep = runSweep(spec);

    for (const auto &wl : spec.workloads) {
        const CellResult &full =
            *sweep.find(wl, RunMode::Full);
        const CellResult &samp =
            *sweep.find(wl, RunMode::Sampled);
        ASSERT_TRUE(samp.sample.present);
        ASSERT_TRUE(samp.sample.hasOracle);
        EXPECT_TRUE(samp.sample.withinCi) << wl;
        // Sampling must actually skip application work...
        EXPECT_LT(samp.sample.detailedAppInsts,
                  full.totals.appInsts);
        EXPECT_GT(samp.sample.ffAppInsts, 0u);
        // ...while instruction streams stay mode-invariant.
        EXPECT_EQ(samp.totals.appInsts, full.totals.appInsts);
        EXPECT_EQ(samp.totals.osInsts, full.totals.osInsts);
        EXPECT_EQ(samp.sample.detailedAppInsts +
                      samp.sample.ffAppInsts,
                  full.totals.appInsts);
        EXPECT_GT(samp.sample.estAppCycles, 0.0);
        EXPECT_LT(samp.sample.detailedFraction, 1.0);
    }
}

TEST(SampledSweep, SampledCellCodecRoundTripsByteExactly)
{
    SweepSpec spec = sampledSpec();
    for (const SweepCell &cell : expandSweep(spec)) {
        if (!isSampledMode(cell.mode))
            continue;
        CellResult original = runCell(spec, cell, 0);
        ASSERT_FALSE(original.failed) << cell.workload;
        ASSERT_TRUE(original.sample.present);

        std::string encoded = encodeCellResult(original);
        std::optional<CellResult> decoded =
            decodeCellResult(encoded);
        ASSERT_TRUE(decoded.has_value()) << cell.workload;
        EXPECT_EQ(encodeCellResult(*decoded), encoded)
            << cell.workload;
        EXPECT_EQ(decoded->sample.sampledIntervals,
                  original.sample.sampledIntervals);
        EXPECT_EQ(decoded->sample.strata.size(),
                  original.sample.strata.size());

        // A stale store payload (pre-sampling schema: no "sample"
        // object) must be rejected, not mis-assembled.
        bool ok = false;
        JsonValue doc = JsonValue::parse(encoded, &ok, nullptr);
        ASSERT_TRUE(ok);
        JsonValue stale = JsonValue::object();
        for (const auto &[key, value] : doc.members()) {
            if (key != "sample")
                stale.add(key, JsonValue(value));
        }
        std::ostringstream os;
        stale.write(os, 0);
        EXPECT_FALSE(decodeCellResult(os.str()).has_value())
            << cell.workload;
    }
}

TEST(SampledSweep, CellKeySeparatesSampledIdentity)
{
    auto path = (std::filesystem::temp_directory_path() /
                 "osp_sampling_key_test.db")
                    .string();
    std::filesystem::remove(path);
    auto store = store::PageStore::open(path);
    CellCache cache(*store, "f00d");

    SweepSpec spec = sampledSpec();
    auto cells = expandSweep(spec);
    // Pick a sampled cell and its full twin.
    std::size_t sampled = cells.size();
    std::size_t full = cells.size();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].workload != "du")
            continue;
        if (cells[i].mode == RunMode::Sampled)
            sampled = i;
        if (cells[i].mode == RunMode::Full)
            full = i;
    }
    ASSERT_LT(sampled, cells.size());
    ASSERT_LT(full, cells.size());
    EXPECT_NE(cache.cellKey(spec, cells[sampled], 0),
              cache.cellKey(spec, cells[full], 0));

    // Sampling parameters fold into the sampled cell's identity
    // but leave unsampled cells' keys untouched.
    SweepSpec retuned = spec;
    retuned.sample.rate = 0.5;
    auto retuned_cells = expandSweep(retuned);
    EXPECT_NE(cache.cellKey(retuned, retuned_cells[sampled], 0),
              cache.cellKey(spec, cells[sampled], 0));
    EXPECT_EQ(cache.cellKey(retuned, retuned_cells[full], 0),
              cache.cellKey(spec, cells[full], 0));

    store.reset();
    std::filesystem::remove(path);
}

TEST(SampledSweep, WarmProfilesReachEveryPredictingCell)
{
    // An archived PLT profile must warm-start SampledAccel cells
    // exactly as it does Accelerated ones: the cell cache already
    // folds the profile's hash into both identities, so a swept
    // cell that ran cold would be stored under a warm key.
    SweepSpec spec;
    spec.name = "sampled-warm";
    spec.workloads = {"du"};
    spec.modes = {RunMode::Accelerated, RunMode::SampledAccel};
    PredictorParams pred = experimentPredictor();
    pred.learningWindow = 20;
    spec.predictors = {{"statistical", pred}};
    spec.scale = 0.1;
    spec.sample.enabled = true;
    spec.sample.intervalLen = 2000;

    std::vector<SweepCell> cells = expandSweep(spec);
    ASSERT_EQ(cells.size(), 2u);
    const std::string profile = runCell(spec, cells[0]).pltProfile;
    ASSERT_FALSE(profile.empty());
    std::map<std::string, std::string> warm = {{"du", profile}};

    RunnerOptions opts;
    opts.threads = 2;
    opts.warmProfiles = &warm;
    SweepResult sweep = runSweep(spec, opts);
    ASSERT_EQ(sweep.cells.size(), cells.size());
    for (const SweepCell &cell : cells) {
        const CellResult &swept = sweep.cells[cell.index];
        CellResult alone = runCell(spec, cell, 0, &profile);
        CellResult cold = runCell(spec, cell);
        const char *mode = runModeName(cell.mode);
        ASSERT_FALSE(swept.failed) << mode;
        // The warm start must matter, or this test proves nothing.
        EXPECT_NE(alone.totals.totalCycles(),
                  cold.totals.totalCycles())
            << mode;
        EXPECT_EQ(swept.totals.totalCycles(),
                  alone.totals.totalCycles())
            << mode;
        EXPECT_EQ(swept.totals.osPredCycles,
                  alone.totals.osPredCycles)
            << mode;
        EXPECT_EQ(swept.pltProfile, alone.pltProfile) << mode;
        EXPECT_EQ(swept.sample.estTotalCycles,
                  alone.sample.estTotalCycles)
            << mode;
    }
}

TEST(SampledSweep, Fig13BracketsOracleOnAllFiveWorkloads)
{
    // The acceptance gate of the sampling extension: in smoke mode
    // every sampled cell's stratified 95% CI brackets its unsampled
    // twin on all five OS-intensive workloads.
    SweepSpec spec = makeNamedSweep("fig13", 1.0 / 20.0, true);
    EXPECT_EQ(expandSweep(spec).size(), 20u);
    RunnerOptions opts;
    opts.threads = 4;
    SweepResult sweep = runSweep(spec, opts);

    int sampled_cells = 0;
    for (const CellResult &r : sweep.cells) {
        if (!r.sample.present)
            continue;
        ++sampled_cells;
        ASSERT_TRUE(r.sample.hasOracle) << r.cell.workload;
        EXPECT_TRUE(r.sample.withinCi)
            << r.cell.workload << " "
            << runModeName(r.cell.mode);
        EXPECT_TRUE(r.sample.hasCi);
    }
    EXPECT_EQ(sampled_cells, 10);
}

/** Full and Sampled cells never consult the predictor, so nothing in
 *  the predicted-service path may move them. The constants pin one
 *  smoke program's totals in both modes, as recorded before the
 *  footprint draw moved from the µop stream to the plan. */
TEST(SampledSweep, FullAndSampledTotalsArePinned)
{
    struct Golden
    {
        RunMode mode;
        InstCount appInsts, osInsts;
        Cycles appCycles, osSimCycles;
        std::uint64_t osInvocations;
        std::uint64_t l1iMisses, l1dMisses, l2Misses;
    };
    const Golden golden[] = {
        {RunMode::Full, 179999, 1207840, 567108, 2911965, 1107,
         60733, 478017, 10329},
        {RunMode::Sampled, 179999, 1207840, 117802, 2911445, 1107,
         60733, 478017, 10329},
    };
    SweepSpec spec = makeNamedSweep("fig13", 1.0 / 20.0, true);
    for (const Golden &want : golden) {
        const SweepCell *cell = nullptr;
        std::vector<SweepCell> cells = expandSweep(spec);
        for (const SweepCell &c : cells)
            if (c.workload == "du" && c.mode == want.mode)
                cell = &c;
        ASSERT_NE(cell, nullptr) << runModeName(want.mode);
        const RunTotals t = runCell(spec, *cell).totals;
        const char *mode = runModeName(want.mode);
        EXPECT_EQ(t.appInsts, want.appInsts) << mode;
        EXPECT_EQ(t.osInsts, want.osInsts) << mode;
        EXPECT_EQ(t.appCycles, want.appCycles) << mode;
        EXPECT_EQ(t.osSimCycles, want.osSimCycles) << mode;
        EXPECT_EQ(t.osPredCycles, 0u) << mode;
        EXPECT_EQ(t.osInvocations, want.osInvocations) << mode;
        EXPECT_EQ(t.measuredMem.l1iMisses, want.l1iMisses) << mode;
        EXPECT_EQ(t.measuredMem.l1dMisses, want.l1dMisses) << mode;
        EXPECT_EQ(t.measuredMem.l2Misses, want.l2Misses) << mode;
    }
}

/** The predicted-service path's output, pinned: Accelerated and
 *  SampledAccel totals of two smoke programs, with the footprint
 *  fills and pollution slots behind them, as recorded before the
 *  footprint draw's item lookup and address arithmetic were
 *  rewritten. */
TEST(SampledSweep, AcceleratedTotalsArePinned)
{
    struct Golden
    {
        const char *workload;
        RunMode mode;
        InstCount appInsts, osInsts, osPredInsts;
        Cycles appCycles, osSimCycles, osPredCycles;
        std::uint64_t osInvocations, osPredicted;
        std::uint64_t l1iMisses, l1dMisses, l2Misses;
        std::uint64_t footprintFills, pollutionSlots;
    };
    const Golden golden[] = {
        {"du", RunMode::Accelerated, 179999, 1207840, 789550,
         566287, 1765198, 1135887, 1107, 656,
         30816, 197880, 10301, 290190, 308586},
        {"du", RunMode::SampledAccel, 179999, 1207840, 789550,
         117294, 1764935, 1134253, 1107, 656,
         30816, 197880, 10301, 290190, 308586},
        {"ab-seq", RunMode::Accelerated, 844500, 32734594, 25948236,
         27099443, 47550601, 116476910, 6456, 4482,
         277615, 1899070, 573915, 6911290, 7113891},
        {"ab-seq", RunMode::SampledAccel, 844500, 32734594, 25948236,
         4226235, 47547903, 116472317, 6456, 4482,
         277612, 1899070, 573915, 6911290, 7113891},
    };
    SweepSpec spec = makeNamedSweep("fig13", 1.0 / 20.0, true);
    const std::vector<SweepCell> cells = expandSweep(spec);
    for (const Golden &want : golden) {
        const SweepCell *cell = nullptr;
        for (const SweepCell &c : cells)
            if (c.workload == want.workload && c.mode == want.mode)
                cell = &c;
        const std::string what =
            std::string(want.workload) + " " + runModeName(want.mode);
        ASSERT_NE(cell, nullptr) << what;
        const CellResult r = runCell(spec, *cell);
        const RunTotals &t = r.totals;
        EXPECT_EQ(t.appInsts, want.appInsts) << what;
        EXPECT_EQ(t.osInsts, want.osInsts) << what;
        EXPECT_EQ(t.osPredInsts, want.osPredInsts) << what;
        EXPECT_EQ(t.appCycles, want.appCycles) << what;
        EXPECT_EQ(t.osSimCycles, want.osSimCycles) << what;
        EXPECT_EQ(t.osPredCycles, want.osPredCycles) << what;
        EXPECT_EQ(t.osInvocations, want.osInvocations) << what;
        EXPECT_EQ(t.osPredicted, want.osPredicted) << what;
        EXPECT_EQ(t.measuredMem.l1iMisses, want.l1iMisses) << what;
        EXPECT_EQ(t.measuredMem.l1dMisses, want.l1dMisses) << what;
        EXPECT_EQ(t.measuredMem.l2Misses, want.l2Misses) << what;
        EXPECT_EQ(r.telemetry.counterValue("machine",
                                           "footprint_install_fills"),
                  want.footprintFills)
            << what;
        EXPECT_EQ(r.telemetry.counterValue("machine",
                                           "pollution_slots_affected"),
                  want.pollutionSlots)
            << what;
    }
}

} // namespace
} // namespace osp
