/**
 * @file
 * Figure 1: L2 cache misses, execution time and IPC obtained from
 * full-system simulation, normalized to application-only simulation.
 *
 * The paper's motivating result: for OS-intensive workloads,
 * application-only simulation misses up to 405x of the L2 misses and
 * underestimates execution time by up to 126x, while SPEC2000-like
 * workloads are essentially unaffected.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);

    banner("Figure 1",
           "full-system vs application-only simulation, normalized "
           "to application-only (1MB L2)");

    SweepSpec spec =
        benchSweep("fig01", allWorkloads(), experimentShapeScale);
    spec.modes = {RunMode::Full, RunMode::AppOnly};
    SweepResult sweep = runBenchSweep(spec, argc, argv);

    TablePrinter table({"bench", "norm_l2_misses", "norm_exec_time",
                        "norm_ipc", "os_inst_frac"});

    for (const auto &name : spec.workloads) {
        const RunTotals &full = sweep.find(name, RunMode::Full)->totals;
        const RunTotals &app = sweep.find(name, RunMode::AppOnly)->totals;

        auto safe = [](std::uint64_t v) {
            return v ? static_cast<double>(v) : 1.0;
        };
        double l2_ratio =
            static_cast<double>(full.combinedMem().l2Misses) /
            safe(app.combinedMem().l2Misses);
        double time_ratio =
            static_cast<double>(full.totalCycles()) /
            safe(app.totalCycles());
        double ipc_ratio = full.ipc() / app.ipc();

        table.addRow({name, TablePrinter::fmt(l2_ratio, 1),
                      TablePrinter::fmt(time_ratio, 2),
                      TablePrinter::fmt(ipc_ratio, 2),
                      TablePrinter::pct(full.osInstFraction())});
    }

    table.print(std::cout);
    paperNote(
        "OS-intensive L2-miss ratios up to 405x and execution-time "
        "ratios up to 126x; SPEC2000 ratios ~1; 67-99% OS "
        "instructions for the OS-intensive set.");
    return 0;
}
