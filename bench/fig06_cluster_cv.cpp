/**
 * @file
 * Figure 6: coefficient of variation of per-service execution time
 * and IPC, treating each service as one big cluster (non-clustered)
 * versus grouping instances with the Sec. 4.2 scaled clusters.
 *
 * The paper: execution-time CV drops 4.7x on average (0.72 -> 0.15)
 * and IPC CV drops 0.13 -> 0.08.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);

    banner("Figure 6",
           "per-service CV, non-clustered vs scaled clusters "
           "(occurrence-weighted average over services)");

    TablePrinter table({"bench", "cv_time_nonclust",
                        "cv_time_clustered", "cv_ipc_nonclust",
                        "cv_ipc_clustered"});

    RunningStats avg_time_non;
    RunningStats avg_time_clu;
    RunningStats avg_ipc_non;
    RunningStats avg_ipc_clu;

    for (const auto &name : osIntensiveWorkloads()) {
        MachineConfig cfg = paperConfig();
        cfg.recordIntervals = true;
        auto machine =
            makeMachine(name, cfg, scaled(experimentShapeScale));
        machine->run();
        // Skip each service's cold-start transient (the predictor's
        // delayed learning start does the same, Sec. 4.4).
        auto summary = summarizeCv(
            characterizeServices(machine->intervals(), 0.05, 100));

        table.addRow({name,
                      TablePrinter::fmt(summary.cvCycles, 3),
                      TablePrinter::fmt(summary.clusteredCvCycles,
                                        3),
                      TablePrinter::fmt(summary.cvIpc, 3),
                      TablePrinter::fmt(summary.clusteredCvIpc,
                                        3)});
        avg_time_non.add(summary.cvCycles);
        avg_time_clu.add(summary.clusteredCvCycles);
        avg_ipc_non.add(summary.cvIpc);
        avg_ipc_clu.add(summary.clusteredCvIpc);
    }

    table.addRow({"average",
                  TablePrinter::fmt(avg_time_non.mean(), 3),
                  TablePrinter::fmt(avg_time_clu.mean(), 3),
                  TablePrinter::fmt(avg_ipc_non.mean(), 3),
                  TablePrinter::fmt(avg_ipc_clu.mean(), 3)});
    table.print(std::cout);

    double drop = avg_time_clu.mean() > 0.0
                      ? avg_time_non.mean() / avg_time_clu.mean()
                      : 0.0;
    std::cout << "\nexecution-time CV reduction: "
              << TablePrinter::fmt(drop, 2) << "x\n";

    paperNote(
        "average execution-time CV 0.72 -> 0.15 (4.7x reduction); "
        "IPC CV 0.13 -> 0.08.");
    return 0;
}
