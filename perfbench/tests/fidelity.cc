/**
 * @file
 * Wrapper fidelity: the traced run rebuilds every program's machine
 * from public headers (makeMachine has no injection point), so this
 * test holds that rebuild to the real one. For every program the
 * benchmark uses and every run mode, the unwrapped rebuild, the
 * wrapped rebuild and runCell() (which goes through makeMachine)
 * must produce bit-identical totals. Drift from
 * workload/registry.cc or driver/sweep.cc fails here.
 *
 * Usage: perfbench_fidelity   (exit 0 = all equal)
 */

#include <cstdio>
#include <string>

#include "driver/experiments.hh"
#include "driver/sweep.hh"
#include "layers.hh"
#include "util/logging.hh"
#include "workload/registry.hh"

int
main()
{
    using namespace osp;
    setLogLevel(LogLevel::Warn);

    SweepSpec spec;
    spec.name = "fidelity";
    spec.workloads = osIntensiveWorkloads();
    spec.workloads.push_back("gzip");
    spec.workloads.push_back("swim");
    spec.modes = {RunMode::Full, RunMode::Accelerated, RunMode::Sampled,
                  RunMode::SampledAccel};
    spec.scale = 0.05;
    PredictorParams pred = experimentPredictor();
    pred.learningWindow = 10;
    spec.predictors = {{"statistical", pred}};
    spec.sample.enabled = true;
    spec.sample.intervalLen = 2000;
    spec.sample.strata = experimentSampleStrata;
    spec.sample.rate = experimentSampleRate;

    int failures = 0;
    for (const SweepCell &cell : expandSweep(spec)) {
        CellResult real = runCell(spec, cell);
        CellResult bare = perfbench::runCellTraced(spec, cell, nullptr);
        perfbench::LayerProbe probe;
        CellResult wrapped = perfbench::runCellTraced(spec, cell, &probe);
        bool ok = perfbench::sameResult(real, bare) &&
                  perfbench::sameResult(real, wrapped) &&
                  probe.runsDone == probe.runs && probe.runs > 0 &&
                  probe.invokeCalls > 0;
        std::printf("%-8s %-14s %s\n", cell.workload.c_str(),
                    runModeName(cell.mode), ok ? "ok" : "MISMATCH");
        failures += ok ? 0 : 1;
    }

    // The Emulate floor the traced run re-measures R against.
    SweepSpec emu = spec;
    emu.modes = {RunMode::Full};
    emu.baseConfig.level = DetailLevel::Emulate;
    for (const SweepCell &cell : expandSweep(emu)) {
        perfbench::LayerProbe probe;
        bool ok = perfbench::sameResult(
            runCell(emu, cell),
            perfbench::runCellTraced(emu, cell, &probe));
        std::printf("%-8s %-14s %s\n", cell.workload.c_str(), "emulate",
                    ok ? "ok" : "MISMATCH");
        failures += ok ? 0 : 1;
    }
    std::printf("%s\n", failures ? "FAIL" : "PASS");
    return failures ? 1 : 0;
}
