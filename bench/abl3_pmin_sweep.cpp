/**
 * @file
 * Ablation 3: minimum-probability-of-occurrence / degree-of-
 * confidence sweep (the Sec. 4.3 knobs behind the learning window).
 *
 * Smaller p_min or higher DoC lengthen the initial learning window
 * (Fig. 7), capturing rarer behaviour points at the cost of
 * coverage.
 */

#include "common.hh"

#include "stats/learning_window.hh"

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);

    banner("Ablation 3",
           "p_min / DoC sweep: derived window, coverage, error "
           "(paper: p_min 3%, DoC 95%)");

    struct Point
    {
        double pmin;
        double doc;
    };
    const Point points[] = {
        {0.10, 0.95}, {0.05, 0.95}, {0.03, 0.95},
        {0.01, 0.95}, {0.03, 0.99},
    };

    SweepSpec spec = benchSweep("abl3", {"ab-rand", "ab-seq", "iperf"},
                                experimentShapeScale);
    for (const Point &pt : points) {
        PredictorParams pp = experimentPredictor();
        pp.learningWindow = 0;  // derive from (pmin, doc)
        pp.pMin = pt.pmin;
        pp.doc = pt.doc;
        pp.relearn.pMin = pt.pmin;
        spec.predictors.push_back(
            {TablePrinter::pct(pt.pmin, 0) + "/" +
                 TablePrinter::pct(pt.doc, 0),
             pp});
    }
    SweepResult sweep = runBenchSweep(spec, argc, argv);

    TablePrinter table({"bench", "p_min", "doc", "window",
                        "coverage", "time_err"});
    for (const auto &name : spec.workloads) {
        for (std::size_t v = 0; v < spec.predictors.size(); ++v) {
            const Point &pt = points[v];
            const CellResult &res =
                *sweep.find(name, RunMode::Accelerated, v);
            table.addRow(
                {name, TablePrinter::pct(pt.pmin, 0),
                 TablePrinter::pct(pt.doc, 0),
                 std::to_string(
                     learningWindowSize(pt.pmin, pt.doc)),
                 TablePrinter::pct(res.totals.coverage()),
                 TablePrinter::pct(res.cycleError)});
        }
    }
    table.print(std::cout);

    paperNote(
        "longer windows (small p_min, high DoC) buy accuracy with "
        "coverage; the paper found 3%/95% (window 100) sufficient "
        "for high accuracy.");
    return 0;
}
