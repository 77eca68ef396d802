/**
 * @file
 * Figure 9: L1I / L1D / L2 miss rates from full-system simulation
 * versus the accelerated simulation's (measured + predicted) rates.
 *
 * The paper reports the difference is 1 point or less, except L2 in
 * find-od at 1.4 points.
 */

#include <algorithm>
#include <cmath>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);

    banner("Figure 9",
           "cache miss rates: full-system vs accelerated "
           "(measured+predicted)");

    // Exactly Table 2's cells: a full-detail and an accelerated run
    // of each OS-intensive workload.
    SweepSpec spec = table2Sweep(smokeFactor());
    spec.name = "fig09";
    SweepResult sweep = runBenchSweep(spec, argc, argv);

    TablePrinter table({"bench", "l1i_full", "l1i_pred", "l1d_full",
                        "l1d_pred", "l2_full", "l2_pred",
                        "worst_diff"});

    auto rate = [](std::uint64_t m, std::uint64_t a) {
        return a ? static_cast<double>(m) / static_cast<double>(a)
                 : 0.0;
    };

    for (const auto &name : spec.workloads) {
        auto f = sweep.find(name, RunMode::Full)->totals.combinedMem();
        auto p =
            sweep.find(name, RunMode::Accelerated)->totals.combinedMem();
        double l1i_f = rate(f.l1iMisses, f.l1iAccesses);
        double l1i_p = rate(p.l1iMisses, p.l1iAccesses);
        double l1d_f = rate(f.l1dMisses, f.l1dAccesses);
        double l1d_p = rate(p.l1dMisses, p.l1dAccesses);
        double l2_f = rate(f.l2Misses, f.l2Accesses);
        double l2_p = rate(p.l2Misses, p.l2Accesses);
        double worst = std::max(
            {std::fabs(l1i_f - l1i_p), std::fabs(l1d_f - l1d_p),
             std::fabs(l2_f - l2_p)});

        table.addRow({name, TablePrinter::pct(l1i_f, 2),
                      TablePrinter::pct(l1i_p, 2),
                      TablePrinter::pct(l1d_f, 2),
                      TablePrinter::pct(l1d_p, 2),
                      TablePrinter::pct(l2_f, 2),
                      TablePrinter::pct(l2_p, 2),
                      TablePrinter::pct(worst, 2)});
    }
    table.print(std::cout);

    paperNote(
        "predicted and fully-simulated miss rates differ by <=1 "
        "point, except find-od's L2 at 1.4 points (improved to 1.2 "
        "by delaying learning start from 5 to 25).");
    return 0;
}
