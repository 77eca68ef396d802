/**
 * @file
 * Figure 5: bubble histogram of sys_read invocations over
 * (instruction-count, cycle-count) bins — 1000 instructions by 4000
 * cycles, as in the paper.
 *
 * The key signature observation: few, heavily-populated bubbles, and
 * for a given instruction bin the cycles cluster narrowly — so the
 * dynamic instruction count (obtainable in emulation) identifies the
 * behaviour point.
 */

#include <map>

#include "common.hh"

#include "stats/histogram.hh"

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);

    banner("Figure 5",
           "sys_read bubble histogram: 1000-instruction x "
           "4000-cycle bins");

    for (const std::string name : {"ab-rand", "ab-seq"}) {
        MachineConfig cfg = paperConfig();
        cfg.recordIntervals = true;
        auto machine =
            makeMachine(name, cfg, scaled(experimentShapeScale));
        machine->run();

        BubbleHistogram hist(1000.0, 4000.0);
        std::uint64_t reads = 0;
        for (const auto &rec : machine->intervals()) {
            if (rec.type == ServiceType::SysRead) {
                hist.add(static_cast<double>(rec.insts),
                         static_cast<double>(rec.cycles));
                ++reads;
            }
        }

        std::cout << "--- " << name << ": " << reads
                  << " invocations in " << hist.numBubbles()
                  << " non-empty bins ---\n";
        TablePrinter table({"inst_bin_center", "cycle_bin_center",
                            "count"});
        for (const auto &b : hist.bubbles()) {
            table.addRow({TablePrinter::fmt(b.xCenter, 0),
                          TablePrinter::fmt(b.yCenter, 0),
                          std::to_string(b.count)});
        }
        table.print(std::cout);

        // Signature quality: cycles-per-instruction-bin spread.
        std::map<std::int64_t, RunningStats> per_bin;
        for (const auto &rec : machine->intervals()) {
            if (rec.type == ServiceType::SysRead) {
                per_bin[static_cast<std::int64_t>(rec.insts / 1000)]
                    .add(static_cast<double>(rec.cycles));
            }
        }
        RunningStats bin_cv;
        for (auto &[bin, s] : per_bin) {
            if (s.count() >= 2)
                bin_cv.add(s.cv());
        }
        std::cout << "mean within-instruction-bin cycle CV: "
                  << TablePrinter::fmt(bin_cv.mean(), 3) << "\n\n";
    }

    paperNote(
        "most (instruction, cycle) bins are empty; populated bins "
        "are few and large, and a given instruction bin spans a "
        "narrow cycle range — instruction count is a good "
        "signature.");
    return 0;
}
