/**
 * @file
 * Figure 10: the Figure 2 experiment (1MB-over-512KB L2 speedup)
 * repeated with the accelerated simulation added: App-Only vs
 * App+OS vs App+OS Pred.
 *
 * The point: the accelerated simulation preserves *relative*
 * performance conclusions — it sees the cache-size speedups that
 * application-only simulation misses.
 *
 * Executes through the parallel sweep runner: 30 cells (5
 * workloads x 3 modes x 2 L2 sizes) run concurrently; the speedup
 * ratios are formed from the aggregated result set.
 */

#include <cmath>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);

    banner("Figure 10",
           "speedup of 1MB over 512KB L2: App-Only vs App+OS vs "
           "App+OS Pred");

    SweepSpec spec = fig10Sweep(smokeFactor());
    SweepResult sweep = runBenchSweep(spec, argc, argv);

    constexpr std::uint64_t small_l2 = 512 * 1024;
    constexpr std::uint64_t large_l2 = 1024 * 1024;

    TablePrinter table(
        {"bench", "app_only", "app_os", "app_os_pred"});

    auto cycles = [&](const std::string &name, RunMode mode,
                      std::uint64_t l2) {
        return static_cast<double>(
            sweep.find(name, mode, 0, l2)->totals.totalCycles());
    };

    double gm_full = 1.0;
    double gm_pred = 1.0;
    int count = 0;
    for (const auto &name : spec.workloads) {
        double app_speedup =
            cycles(name, RunMode::AppOnly, small_l2) /
            cycles(name, RunMode::AppOnly, large_l2);
        double full_speedup =
            cycles(name, RunMode::Full, small_l2) /
            cycles(name, RunMode::Full, large_l2);
        double pred_speedup =
            cycles(name, RunMode::Accelerated, small_l2) /
            cycles(name, RunMode::Accelerated, large_l2);
        gm_full *= full_speedup;
        gm_pred *= pred_speedup;
        ++count;

        table.addRow({name, TablePrinter::fmt(app_speedup, 3),
                      TablePrinter::fmt(full_speedup, 3),
                      TablePrinter::fmt(pred_speedup, 3)});
    }
    table.print(std::cout);
    std::cout << "\ngeomean App+OS "
              << TablePrinter::fmt(std::pow(gm_full, 1.0 / count),
                                   3)
              << " vs App+OS Pred "
              << TablePrinter::fmt(std::pow(gm_pred, 1.0 / count),
                                   3)
              << "\n";

    std::cout << "\nsweep: " << sweep.cells.size() << " cells in "
              << TablePrinter::fmt(sweep.wallSeconds, 2) << " s on "
              << sweep.threads << " thread(s)\n";

    paperNote(
        "the App+OS Pred bars track the App+OS bars closely while "
        "App-Only misses the speedups entirely (paper Fig. 10: "
        "pred bar within a few percent of full, e.g. 2.16 vs 2.03 "
        "for iperf).");
    return 0;
}
