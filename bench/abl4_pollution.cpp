/**
 * @file
 * Ablation 4: cache-pollution models for predicted OS intervals.
 *
 * The paper's Sec. 4.5 model invalidates predicted-miss-count
 * application lines in random sets. On an OS-dominated substrate
 * that saturates (every set soon holds an invalid line) and ignores
 * kernel-on-kernel displacement, so this repository adds synthetic
 * installation and footprint-faithful installation (DESIGN.md).
 * This bench quantifies each step.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);

    banner("Ablation 4", "pollution policies for predicted intervals");

    SweepSpec spec = benchSweep("abl4", osIntensiveWorkloads(),
                                experimentShapeScale);
    spec.predictors = {{"statistical", experimentPredictor()}};
    spec.pollution = {
        PollutionPolicy::None,
        PollutionPolicy::PaperInvalidateApp,
        PollutionPolicy::InvalidateAny,
        PollutionPolicy::SyntheticInstall,
        PollutionPolicy::Footprint,
    };
    SweepResult sweep = runBenchSweep(spec, argc, argv);

    TablePrinter table({"bench", "policy", "time_err"});
    for (const auto &name : spec.workloads) {
        for (std::size_t q = 0; q < spec.pollution.size(); ++q) {
            const CellResult &res =
                *sweep.find(name, RunMode::Accelerated, 0, 0, 0, q);
            table.addRow({name, pollutionPolicyName(spec.pollution[q]),
                          TablePrinter::pct(res.cycleError)});
        }
    }
    table.print(std::cout);

    paperNote(
        "the paper's app-only invalidation suffices on its "
        "app-centric caches; with 67-99% kernel instructions, "
        "modelling the skipped service's own footprint (install/"
        "footprint) is what recovers the 3%-level accuracy.");
    return 0;
}
