/**
 * @file
 * Figure 2: speedup from growing the L2 from 512KB to 1MB, measured
 * with application-only simulation versus full-system simulation.
 *
 * Application-only simulation wrongly concludes the larger cache is
 * useless for OS-intensive workloads; full-system simulation shows
 * up to 2.03x (iperf in the paper).
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);

    banner("Figure 2",
           "speedup of 1MB over 512KB L2: App-Only vs App+OS");

    SweepSpec spec =
        benchSweep("fig02", allWorkloads(), experimentShapeScale);
    spec.modes = {RunMode::Full, RunMode::AppOnly};
    spec.l2Sizes = {512 * 1024, 1024 * 1024};
    SweepResult sweep = runBenchSweep(spec, argc, argv);

    // Cycles with the 512KB L2 over cycles with the 1MB one.
    auto speedup = [&](const std::string &name, RunMode mode) {
        auto cycles = [&](std::uint64_t l2) {
            return static_cast<double>(
                sweep.find(name, mode, 0, l2)->totals.totalCycles());
        };
        return cycles(spec.l2Sizes[0]) / cycles(spec.l2Sizes[1]);
    };

    TablePrinter table({"bench", "app_only_speedup",
                        "app_os_speedup"});
    for (const auto &name : spec.workloads) {
        table.addRow(
            {name, TablePrinter::fmt(speedup(name, RunMode::AppOnly), 3),
             TablePrinter::fmt(speedup(name, RunMode::Full), 3)});
    }

    table.print(std::cout);
    paperNote(
        "App-Only bars ~1.0 for the OS-intensive set (misleading); "
        "App+OS bars clearly >1, up to 2.03x for iperf; the two "
        "bars agree for SPEC2000.");
    return 0;
}
