/**
 * @file
 * Figure 12: absolute execution-time prediction error with L2 sizes
 * of 1MB, 2MB and 4MB (8-way fixed).
 *
 * The paper: accuracy holds across sizes, with the average error
 * slightly declining for larger L2 caches.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);

    banner("Figure 12",
           "absolute execution-time prediction error vs L2 size");

    // Table 2's cells at three L2 sizes (8-way throughout).
    SweepSpec spec = table2Sweep(smokeFactor());
    spec.name = "fig12";
    spec.l2Sizes = {1ULL << 20, 2ULL << 20, 4ULL << 20};
    SweepResult sweep = runBenchSweep(spec, argc, argv);

    TablePrinter table({"bench", "1MB", "2MB", "4MB"});
    RunningStats avg[3];

    for (const auto &name : spec.workloads) {
        std::vector<std::string> row = {name};
        for (int i = 0; i < 3; ++i) {
            double err = sweep.find(name, RunMode::Accelerated, 0,
                                    spec.l2Sizes[i])
                             ->cycleError;
            row.push_back(TablePrinter::pct(err));
            avg[i].add(err);
        }
        table.addRow(row);
    }
    table.addRow({"average", TablePrinter::pct(avg[0].mean()),
                  TablePrinter::pct(avg[1].mean()),
                  TablePrinter::pct(avg[2].mean())});
    table.print(std::cout);

    paperNote(
        "errors stay low (a few percent) at every size and decline "
        "slightly with larger L2 caches.");
    return 0;
}
