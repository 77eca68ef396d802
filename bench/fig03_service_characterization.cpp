/**
 * @file
 * Figure 3: per-OS-service average and range (mean +- stddev) of
 * simulated cycles and IPC, for ab-rand and ab-seq.
 *
 * Shows that (a) services differ from each other, (b) the same
 * service differs across applications, and (c) per-service variation
 * is high — each service has multiple behaviour points.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);

    banner("Figure 3",
           "per-service cycles and IPC: average +- stddev (services "
           "invoked more than once)");

    for (const std::string name : {"ab-rand", "ab-seq"}) {
        MachineConfig cfg = paperConfig();
        cfg.recordIntervals = true;
        auto machine =
            makeMachine(name, cfg, scaled(experimentShapeScale));
        machine->run();
        auto chars = characterizeServices(machine->intervals());

        std::cout << "--- " << name << " ---\n";
        TablePrinter table({"service", "invocations", "cycles_avg",
                            "cycles_stddev", "ipc_avg",
                            "ipc_stddev"});
        for (const auto &c : chars) {
            if (c.invocations < 2)
                continue;
            table.addRow({serviceName(c.type),
                          std::to_string(c.invocations),
                          TablePrinter::fmt(c.cycles.mean(), 0),
                          TablePrinter::fmt(c.cycles.stddev(), 0),
                          TablePrinter::fmt(c.ipc.mean(), 3),
                          TablePrinter::fmt(c.ipc.stddev(), 3)});
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    paperNote(
        "services average a few thousand to tens of thousands of "
        "cycles; IPC ranges 0.09-0.47; ranges (stddev) are large "
        "for most services and differ between ab-rand and ab-seq.");
    return 0;
}
