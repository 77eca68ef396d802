/** @file Robustness fuzzing of the decoders that read bytes back from
 *  the store: mutated cell values and PLT profiles must be rejected
 *  or decode to a value that re-encodes to the same bytes, and must
 *  never throw or abort. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/accelerator.hh"
#include "driver/cell_io.hh"
#include "fuzz_inputs.hh"
#include "util/json.hh"
#include "util/random.hh"

namespace osp
{
namespace
{

/** The profile of an accelerator trained on two services. */
std::string
trainedProfile()
{
    PredictorParams pp;
    pp.warmupInvocations = 0;
    pp.learningWindow = 3;
    Accelerator accel(pp);
    ServiceController::IntervalOutcome o;
    o.detailed = true;
    for (std::uint64_t i = 0; i < 6; ++i) {
        o.type = i % 2 ? ServiceType::SysRead : ServiceType::SysWrite;
        o.invocation = i / 2;
        o.insts = 1000 + 7 * i;
        o.cycles = 5000 + 1234 * i;
        o.mem.l1dMisses = 3 + i;
        o.mem.l2Misses = 10 + i;
        accel.onServiceEnd(o);
    }
    std::ostringstream os;
    accel.saveState(os);
    return os.str();
}

/** Encodings of a sampled-accelerated cell with every section
 *  filled, a Full cell with the optional sections left out, and a
 *  failed cell. */
std::vector<std::string>
validCells()
{
    CellResult r;
    r.cell.index = 3;
    r.cell.workload = "ab-seq";
    r.cell.mode = RunMode::SampledAccel;
    r.cell.predictorIndex = 1;
    r.cell.l2Bytes = 1 << 20;
    r.cell.seed = 42;
    r.totals.appInsts = 123456;
    r.totals.osInsts = 654321;
    r.totals.appCycles = 999999;
    r.totals.osPredicted = 17;
    r.totals.measuredMem.l2Misses = 4321;
    r.totals.perService[2].invocations = 9;
    r.totals.perService[2].cycles = 77777;
    r.hasStats = true;
    r.stats.predictedRuns = 17;
    r.stats.audits = 2;
    r.telemetry.counters.push_back({"machine", "services", 26});
    r.telemetry.gauges.push_back({"predictor", "clusters", 0.75});
    r.telemetry.histograms.push_back(
        {"machine", "service_insts", 5, 1011, {{1, 2}, {512, 3}}});
    r.traceInfo.capacity = 64;
    r.traceInfo.recorded = 3;
    for (std::uint8_t s : {0, 2}) {
        obs::AccuracyEntry e;
        e.service = s;
        e.cluster = 1u + s;
        e.predictions = 10;
        e.errCount = 3;
        e.errMean = 0.0125 * (s + 1);
        e.errM2 = 1.5e-5;
        e.errMin = -0.02;
        e.errMax = 0.031;
        e.ipcMean = 0.8125;
        e.ci95 = 0.004;
        e.hasCi = s != 0;
        r.accuracy.entries.push_back(e);
    }
    r.accuracy.tolerance = 0.05;
    r.accuracy.totalCycles = 1000;
    for (std::uint64_t i = 0; i < 3; ++i)
        r.trace.push_back({100 * i, i, 2 * i,
                           obs::TraceEventKind::ServicePredicted,
                           static_cast<std::uint8_t>(i)});
    r.pltProfile = trainedProfile();
    r.sample.present = true;
    r.sample.intervalLen = 20000;
    r.sample.numIntervals = 9;
    r.sample.numStrata = 2;
    r.sample.estAppCycles = 123456.5;
    r.sample.ciHalfWidth = 0.142;
    r.sample.hasCi = true;
    r.sample.strata = {{5, 2, 1500.25, 12.5}, {4, 1, 900, 0}};

    CellResult full;
    full.cell.workload = "gzip";
    full.totals = r.totals;
    full.telemetry = r.telemetry;

    CellResult failed;
    failed.cell.workload = "du";
    failed.failed = true;
    failed.error = "boom";
    return {encodeCellResult(r), encodeCellResult(full),
            encodeCellResult(failed)};
}

class DecoderFuzz : public ::testing::TestWithParam<int>
{
};

/** decodeCellResult() rejects a mutated cell value, or decodes it to
 *  a result whose encoding is the input's JSON document: no member
 *  skipped, re-typed, narrowed or reordered. */
TEST_P(DecoderFuzz, CellValuesFailClosed)
{
    const std::vector<std::string> valid = validCells();
    Pcg32 rng(GetParam(), 0xCE11);
    std::vector<std::string> inputs = truncations(valid.back());
    for (const std::string &v : valid) {
        std::vector<std::string> m = mutations(v, valid, rng, 1500);
        inputs.insert(inputs.end(), m.begin(), m.end());
    }
    int accepted = 0;
    for (const std::string &in : inputs) {
        std::optional<CellResult> r;
        ASSERT_NO_THROW(r = decodeCellResult(in)) << in;
        if (!r)
            continue;
        ++accepted;
        bool ok = false;
        const JsonValue doc = JsonValue::parse(in, &ok);
        ASSERT_TRUE(ok) << in;
        ASSERT_EQ(encodeCellResult(*r), doc.dump(-1)) << in;
    }
    // Flips inside numbers and strings decode: the property was
    // exercised, not only the rejections.
    EXPECT_GT(accepted, 0);
}

/** Accelerator::loadState() rejects a mutated profile, or loads one
 *  that saveState() writes back byte for byte, and a rejected load
 *  leaves nothing learned behind. */
TEST_P(DecoderFuzz, ProfilesFailClosed)
{
    const std::string profile = trainedProfile();
    const std::string short_profile =
        "ospredict-profile v1\nservice 3 1\n"
        "2 1000 8 5000 50 0.2 1 0.5 7 2 9 3\nend\n";
    Pcg32 rng(GetParam(), 0x9F1E);
    std::vector<std::string> inputs = truncations(short_profile);
    for (const std::string &v : {profile, short_profile}) {
        std::vector<std::string> m =
            mutations(v, {profile, short_profile}, rng, 1500);
        inputs.insert(inputs.end(), m.begin(), m.end());
    }
    int accepted = 0;
    for (const std::string &in : inputs) {
        Accelerator accel;
        std::istringstream is(in);
        bool loaded = false;
        ASSERT_NO_THROW(loaded = accel.loadState(is)) << in;
        std::ostringstream os;
        accel.saveState(os);
        if (!loaded) {
            ASSERT_EQ(os.str(), "ospredict-profile v1\nend\n") << in;
            continue;
        }
        ++accepted;
        ASSERT_EQ(os.str(), in);
    }
    EXPECT_GT(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz, ::testing::Range(1, 6));

} // namespace
} // namespace osp
