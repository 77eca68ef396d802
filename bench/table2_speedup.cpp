/**
 * @file
 * Table 2: estimated simulation speedup per benchmark via Eq. 10,
 *
 *     speedup = N / (X / R + (N - X))
 *
 * where N is total instructions, X the instructions fast-forwarded
 * in prediction periods, and R the detailed-over-emulation slowdown
 * ratio. The paper uses its measured R = 133 and reports 2.8x-15.6x
 * with a 4.9x geometric mean. We report Eq. 10 under the paper's
 * R = 133, under our own measured R, and the directly measured
 * wall-clock speedup (our simulator can actually switch modes).
 *
 * The full/accelerated pairs execute through the parallel sweep
 * runner; per-cell wall clocks come from the runner's own timers.
 * When cells run concurrently they contend for cores, which adds
 * noise to the per-cell wall column (the full/fast *ratio* is
 * robust because both cells see the same contention regime); run
 * with `--threads 1` for the cleanest timing numbers. The R
 * calibration stays serial — it is a timing micro-measurement.
 */

#include <chrono>
#include <cmath>
#include <functional>

#include "common.hh"

namespace
{

double
wallSeconds(const std::function<void()> &fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - start).count();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);

    banner("Table 2", "estimated and measured simulation speedups");

    // Measure our own detailed/emulation per-instruction ratio once
    // (the R of Eq. 10), like the paper derived 133x from Table 1.
    double measured_ratio;
    {
        MachineConfig cfg = paperConfig();
        cfg.level = DetailLevel::Emulate;
        auto emu = makeMachine("ab-rand", cfg, scaled(1.0));
        double t_emu = wallSeconds([&] { emu->run(); });
        cfg.level = DetailLevel::OooCache;
        auto det = makeMachine("ab-rand", cfg, scaled(1.0));
        double t_det = wallSeconds([&] { det->run(); });
        measured_ratio = t_det / t_emu;
    }

    SweepSpec spec = table2Sweep(smokeFactor());
    SweepResult sweep = runBenchSweep(spec, argc, argv);

    TablePrinter table({"bench", "coverage", "pred_inst_frac",
                        "est_speedup_R133", "est_speedup_Rmeas",
                        "measured_wall"});

    double gm133 = 1.0;
    double gmeas = 1.0;
    double gwall = 1.0;
    int count = 0;

    for (const auto &name : spec.workloads) {
        const CellResult &full =
            *sweep.find(name, RunMode::Full);
        const CellResult &fast =
            *sweep.find(name, RunMode::Accelerated);
        const RunTotals &t = fast.totals;

        double frac = static_cast<double>(t.osPredInsts) /
                      static_cast<double>(t.totalInsts());
        double est133 = fast.estSpeedupR133;
        double estm = estimatedSpeedup(t, measured_ratio);
        double wall = full.wallSeconds / fast.wallSeconds;
        gm133 *= est133;
        gmeas *= estm;
        gwall *= wall;
        ++count;

        table.addRow({name, TablePrinter::pct(t.coverage()),
                      TablePrinter::pct(frac),
                      TablePrinter::fmt(est133, 2) + "x",
                      TablePrinter::fmt(estm, 2) + "x",
                      TablePrinter::fmt(wall, 2) + "x"});
    }
    table.addRow({"gmean", "", "",
                  TablePrinter::fmt(std::pow(gm133, 1.0 / count),
                                    2) +
                      "x",
                  TablePrinter::fmt(std::pow(gmeas, 1.0 / count),
                                    2) +
                      "x",
                  TablePrinter::fmt(std::pow(gwall, 1.0 / count),
                                    2) +
                      "x"});
    table.print(std::cout);

    std::cout << "\nmeasured detailed/emulation ratio R = "
              << TablePrinter::fmt(measured_ratio, 2) << "x\n";

    std::cout << "\nsweep: " << sweep.cells.size() << " cells in "
              << TablePrinter::fmt(sweep.wallSeconds, 2) << " s on "
              << sweep.threads << " thread(s)\n";

    paperNote(
        "Eq. 10 with R=133 gives 2.8x (ab-rand) to 15.6x (iperf), "
        "geometric mean 4.9x. Simics could not switch modes "
        "dynamically, so the paper's speedups are estimates; ours "
        "can, so the measured-wall column is a real end-to-end "
        "speedup (bounded by our smaller R).");
    return 0;
}
