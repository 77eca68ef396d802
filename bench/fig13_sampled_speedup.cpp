/**
 * @file
 * Figure 13 (extension): stratified interval sampling composed with
 * OS-service prediction.
 *
 * Detailed-simulation work shrinks multiplicatively when both
 * reductions are on: prediction removes the kernel instructions the
 * predictor covers, sampling removes the application intervals the
 * stratifier leaves out of the sample. Per workload we run the four
 * corners of that square — full detail, predict-only, sample-only,
 * combined — and report the shrink of *detailed-simulated
 * instructions* (a deterministic count, unlike wall clock) for each
 * corner, plus the check that predict-only x sample-only
 * approximately equals combined.
 *
 * Accuracy rides along: the sampled corners carry the stratified
 * estimator's 95% confidence interval, and the full-detail oracle
 * must land inside it.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_json.hh"
#include "common.hh"

namespace
{

/** Instructions simulated at the detailed level in one cell. */
double
detailedInsts(const osp::CellResult &r)
{
    const osp::RunTotals &t = r.totals;
    // OS instructions not absorbed by prediction stay detailed.
    double os_detailed =
        static_cast<double>(t.osInsts - t.osPredInsts);
    if (r.sample.present)
        return static_cast<double>(r.sample.detailedAppInsts) +
               os_detailed;
    return static_cast<double>(t.appInsts) + os_detailed;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);

    banner("Figure 13",
           "sampling x prediction: composed shrink of detailed "
           "work");

    SweepSpec spec = fig13Sweep(smokeFactor());
    SweepResult sweep = runBenchSweep(spec, argc, argv);

    TablePrinter table({"bench", "pred_only", "sample_only",
                        "combined", "pred*sample", "det_frac",
                        "cpi_err", "in_ci"});

    std::vector<double> composed;
    std::vector<double> fractions;
    int within = 0;
    int sampled_cells = 0;

    for (const auto &name : spec.workloads) {
        const CellResult &full = *sweep.find(name, RunMode::Full);
        const CellResult &pred =
            *sweep.find(name, RunMode::Accelerated);
        const CellResult &samp =
            *sweep.find(name, RunMode::Sampled);
        const CellResult &both =
            *sweep.find(name, RunMode::SampledAccel);

        double base = detailedInsts(full);
        double s_pred = base / detailedInsts(pred);
        double s_samp = base / detailedInsts(samp);
        double s_both = base / detailedInsts(both);
        composed.push_back(s_both);
        fractions.push_back(both.sample.detailedFraction);
        for (const CellResult *r : {&samp, &both}) {
            ++sampled_cells;
            if (r->sample.withinCi)
                ++within;
        }

        table.addRow(
            {name, TablePrinter::fmt(s_pred, 2) + "x",
             TablePrinter::fmt(s_samp, 2) + "x",
             TablePrinter::fmt(s_both, 2) + "x",
             TablePrinter::fmt(s_pred * s_samp, 2) + "x",
             TablePrinter::pct(both.sample.detailedFraction),
             TablePrinter::pct(both.sample.oracleError),
             both.sample.withinCi ? "yes" : "NO"});
    }
    table.print(std::cout);

    std::sort(composed.begin(), composed.end());
    std::sort(fractions.begin(), fractions.end());
    double med_speedup = composed[composed.size() / 2];
    double med_fraction = fractions[fractions.size() / 2];

    std::cout << "\ncombined detailed-inst shrink (median): "
              << TablePrinter::fmt(med_speedup, 2) << "x\n";
    std::cout << "combined detailed fraction (median):    "
              << TablePrinter::pct(med_fraction) << "\n";
    std::cout << "oracle CPI within 95% CI: " << within << "/"
              << sampled_cells << " sampled cells\n";

    std::cout << "\nsweep: " << sweep.cells.size() << " cells in "
              << TablePrinter::fmt(sweep.wallSeconds, 2) << " s on "
              << sweep.threads << " thread(s)\n";

    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--bench-json") {
            std::vector<BenchMetric> metrics = {
                {"sampled_vs_full_speedup", med_speedup, "x"},
                {"sampled_detailed_fraction", med_fraction,
                 "frac"},
            };
            if (!mergeBenchJson(argv[i + 1], smokeMode(), metrics))
                return 1;
            std::cerr << "fig13: bench json -> " << argv[i + 1]
                      << "\n";
        }
    }

    paperNote(
        "The paper's Eq. 10 speedup comes from prediction alone; "
        "this extension shows the two reductions compose because "
        "they remove disjoint work: prediction removes kernel "
        "instructions, stratified sampling removes unsampled "
        "application intervals, and the OS predictor stays active "
        "in both phases of the sampled run.");
    return 0;
}
