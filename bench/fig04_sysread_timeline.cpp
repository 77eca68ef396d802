/**
 * @file
 * Figure 4: execution time of sys_read at each invocation, for
 * ab-rand (a) and ab-seq (b).
 *
 * The scatter shows high invocation-to-invocation variation but only
 * a limited number of repeated behaviour levels; for ab-seq, new
 * levels appear when the served document changes — the case that
 * stresses re-learning.
 */

#include <algorithm>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);

    banner("Figure 4",
           "sys_read execution time per invocation (downsampled "
           "scatter; min/max per bucket of invocations)");

    for (const std::string name : {"ab-rand", "ab-seq"}) {
        MachineConfig cfg = paperConfig();
        cfg.recordIntervals = true;
        auto machine =
            makeMachine(name, cfg, scaled(experimentShapeScale));
        machine->run();

        std::vector<Cycles> series;
        for (const auto &rec : machine->intervals()) {
            if (rec.type == ServiceType::SysRead)
                series.push_back(rec.cycles);
        }

        std::cout << "--- " << name << " (" << series.size()
                  << " invocations) ---\n";
        TablePrinter table({"invocation", "cycles_min",
                            "cycles_mean", "cycles_max"});
        std::size_t bucket =
            std::max<std::size_t>(series.size() / 40, 1);
        for (std::size_t start = 0; start < series.size();
             start += bucket) {
            std::size_t end =
                std::min(series.size(), start + bucket);
            RunningStats s;
            for (std::size_t i = start; i < end; ++i)
                s.add(static_cast<double>(series[i]));
            table.addRow({std::to_string(start),
                          TablePrinter::fmt(s.min(), 0),
                          TablePrinter::fmt(s.mean(), 0),
                          TablePrinter::fmt(s.max(), 0)});
        }
        table.print(std::cout);

        RunningStats all;
        for (Cycles c : series)
            all.add(static_cast<double>(c));
        std::cout << "overall: min " << all.min() << ", max "
                  << all.max() << ", mean "
                  << TablePrinter::fmt(all.mean(), 0) << "\n\n";
    }

    paperNote(
        "sys_read varies from ~2,000 to ~50,000 cycles across "
        "invocations; ab-seq shows step changes when the served "
        "document changes.");
    return 0;
}
