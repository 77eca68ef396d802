/**
 * @file
 * Ablation 1: scaled-cluster half-range sweep (the Sec. 4.2 "bin
 * sizing" discussion).
 *
 * Too-narrow ranges fragment behaviour points into many clusters
 * (longer learning, frequent signature mismatches, lower coverage);
 * too-wide ranges merge distinct points (worse accuracy). The paper
 * settles on centroid +- 5%.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);

    banner("Ablation 1",
           "scaled-cluster half-range sweep (paper: 5%)");

    const double ranges[] = {0.01, 0.02, 0.05, 0.10, 0.20};

    SweepSpec spec = benchSweep("abl1", {"ab-rand", "ab-seq", "iperf"},
                                experimentShapeScale);
    for (double range : ranges) {
        PredictorParams pp = experimentPredictor();
        pp.clusterRange = range;
        spec.predictors.push_back({TablePrinter::pct(range, 0), pp});
    }
    SweepResult sweep = runBenchSweep(spec, argc, argv);

    TablePrinter table({"bench", "range", "coverage", "time_err",
                        "outlier_frac", "relearn_events"});

    for (const auto &name : spec.workloads) {
        for (std::size_t v = 0; v < spec.predictors.size(); ++v) {
            const CellResult &res =
                *sweep.find(name, RunMode::Accelerated, v);
            double outlier_frac =
                res.stats.predictedRuns
                    ? static_cast<double>(res.stats.outliers) /
                          static_cast<double>(
                              res.stats.predictedRuns)
                    : 0.0;
            table.addRow({name, spec.predictors[v].label,
                          TablePrinter::pct(res.totals.coverage()),
                          TablePrinter::pct(res.cycleError),
                          TablePrinter::pct(outlier_frac),
                          std::to_string(
                              res.stats.relearnEvents)});
        }
    }
    table.print(std::cout);

    paperNote(
        "the paper's 5% range balances fragmentation (outliers, "
        "re-learning) against merging distinct behaviour points.");
    return 0;
}
