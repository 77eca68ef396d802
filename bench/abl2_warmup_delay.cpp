/**
 * @file
 * Ablation 2: delayed learning start (Sec. 4.4's first i.i.d.
 * violation — initialization effects and cold caches).
 *
 * The paper delays learning by 5 invocations, and shows find-od's
 * L2 miss-rate error improving when the delay is raised to 25. On
 * our substrate the thermal transient is longer (see DESIGN.md), so
 * this sweep is what calibrates the default of 100.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);

    banner("Ablation 2",
           "delayed learning start: warm-up invocations per "
           "service (paper: 5, find-od L2 fixed with 25)");

    const std::uint64_t delays[] = {0, 5, 25, 50, 100, 200};

    SweepSpec spec = benchSweep("abl2", osIntensiveWorkloads(),
                                experimentShapeScale);
    for (std::uint64_t delay : delays) {
        PredictorParams pp = experimentPredictor();
        pp.warmupInvocations = delay;
        spec.predictors.push_back({std::to_string(delay), pp});
    }
    SweepResult sweep = runBenchSweep(spec, argc, argv);

    TablePrinter table({"bench", "delay", "coverage", "time_err"});
    for (const auto &name : spec.workloads) {
        for (std::size_t v = 0; v < spec.predictors.size(); ++v) {
            const CellResult &res =
                *sweep.find(name, RunMode::Accelerated, v);
            table.addRow({name, spec.predictors[v].label,
                          TablePrinter::pct(res.totals.coverage()),
                          TablePrinter::pct(res.cycleError)});
        }
    }
    table.print(std::cout);

    paperNote(
        "recording the cold-start transient poisons the learned "
        "clusters; delaying the learning start trades a little "
        "coverage for large accuracy gains on cold-heavy "
        "workloads (du, iperf).");
    return 0;
}
