/**
 * @file
 * Ablation 6: instruction-count vs instruction-mix signatures.
 *
 * The paper (Sec. 3) notes that "other metrics such as the mix of
 * instructions, branch history, or Basic Block Vector may also
 * serve as good bases for constructing signatures" but leaves the
 * exploration as future work, since count-based signatures already
 * predict well. This bench runs that exploration: mix signatures
 * additionally require per-class (load/store/branch) counts to
 * match the cluster, splitting same-count paths of different
 * composition at some cost in coverage (finer clusters take longer
 * to learn and mismatch more often).
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);

    banner("Ablation 6",
           "signature basis: instruction count (paper) vs "
           "count+mix (paper's future work)");

    SweepSpec spec = benchSweep("abl6", osIntensiveWorkloads(),
                                experimentShapeScale);
    for (bool mix : {false, true}) {
        PredictorParams pp = experimentPredictor();
        pp.useMixSignature = mix;
        spec.predictors.push_back({mix ? "count+mix" : "count", pp});
    }
    SweepResult sweep = runBenchSweep(spec, argc, argv);

    TablePrinter table({"bench", "signature", "coverage",
                        "time_err", "clusters_sys_read",
                        "outlier_frac"});

    for (const auto &name : spec.workloads) {
        for (std::size_t v = 0; v < spec.predictors.size(); ++v) {
            const CellResult &res =
                *sweep.find(name, RunMode::Accelerated, v);
            // sys_read's table size: its cluster gauge only grows,
            // so the last value is the final count (absent, and 0,
            // when the run never invoked sys_read).
            std::uint64_t read_clusters = 0;
            for (const auto &g : res.telemetry.gauges) {
                if (g.component == "predictor.sys_read" &&
                    g.name == "plt_clusters")
                    read_clusters =
                        static_cast<std::uint64_t>(g.value);
            }
            double outlier_frac =
                res.stats.predictedRuns
                    ? static_cast<double>(res.stats.outliers) /
                          static_cast<double>(res.stats.predictedRuns)
                    : 0.0;

            table.addRow({name, spec.predictors[v].label,
                          TablePrinter::pct(res.totals.coverage()),
                          TablePrinter::pct(res.cycleError),
                          std::to_string(read_clusters),
                          TablePrinter::pct(outlier_frac)});
        }
    }
    table.print(std::cout);

    paperNote(
        "count-based signatures already give high accuracy (the "
        "paper's conclusion); the mix refinement mostly adds "
        "clusters and outliers without moving total error much on "
        "these services, whose paths differ in count anyway.");
    return 0;
}
