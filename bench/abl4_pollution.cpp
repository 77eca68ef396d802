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

    const PollutionPolicy policies[] = {
        PollutionPolicy::None,
        PollutionPolicy::PaperInvalidateApp,
        PollutionPolicy::InvalidateAny,
        PollutionPolicy::SyntheticInstall,
        PollutionPolicy::Footprint,
    };

    TablePrinter table({"bench", "policy", "time_err"});
    for (const auto &name : osIntensiveWorkloads()) {
        MachineConfig cfg = paperConfig();
        RunTotals full = runFull(name, cfg, shapeScale);
        for (PollutionPolicy policy : policies) {
            MachineConfig c = cfg;
            c.pollutionPolicy = policy;
            AccelResult res =
                runAccelerated(name, c, shapeScale);
            double err = absError(
                static_cast<double>(res.totals.totalCycles()),
                static_cast<double>(full.totalCycles()));
            table.addRow({name, pollutionPolicyName(policy),
                          TablePrinter::pct(err)});
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
