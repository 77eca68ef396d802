/**
 * @file
 * Figure 8: execution time (a) and IPC (b) from the accelerated
 * full-system simulation (App+OS Pred) and from application-only
 * simulation, normalized to full-system simulation.
 *
 * The paper's headline accuracy: average absolute execution-time
 * error 3.2%, worst case 4.2% (du); application-only errors average
 * 12.5% IPC with a 39.8% worst case.
 *
 * Executes through the parallel sweep runner (src/driver): all 15
 * cells (5 workloads x {full, app-only, accelerated}) run
 * concurrently, one isolated Machine each, and the table below is
 * read out of the aggregated result set. `--threads N` pins the
 * worker count (default: one per core), `--smoke` shrinks the work
 * volume for CI.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);

    banner("Figure 8",
           "normalized execution time and IPC: App+OS Pred and "
           "App-Only vs full-system (Statistical strategy, window "
           "100)");

    SweepSpec spec = fig08Sweep(smokeFactor());
    SweepResult sweep = runBenchSweep(spec, argc, argv);

    TablePrinter table({"bench", "norm_time_pred", "norm_time_app",
                        "norm_ipc_pred", "norm_ipc_app",
                        "pred_time_err", "coverage"});

    RunningStats err_stats;
    for (const auto &name : spec.workloads) {
        const CellResult &full =
            *sweep.find(name, RunMode::Full);
        const CellResult &pred =
            *sweep.find(name, RunMode::Accelerated);
        const CellResult &app =
            *sweep.find(name, RunMode::AppOnly);

        double t_pred =
            static_cast<double>(pred.totals.totalCycles()) /
            static_cast<double>(full.totals.totalCycles());
        double t_app =
            static_cast<double>(app.totals.totalCycles()) /
            static_cast<double>(full.totals.totalCycles());
        double ipc_pred = pred.totals.ipc() / full.totals.ipc();
        double ipc_app = app.totals.ipc() / full.totals.ipc();
        err_stats.add(pred.cycleError);

        table.addRow({name, TablePrinter::fmt(t_pred, 3),
                      TablePrinter::fmt(t_app, 3),
                      TablePrinter::fmt(ipc_pred, 3),
                      TablePrinter::fmt(ipc_app, 3),
                      TablePrinter::pct(pred.cycleError),
                      TablePrinter::pct(pred.totals.coverage())});
    }
    table.print(std::cout);

    std::cout << "\naverage prediction error: "
              << TablePrinter::pct(err_stats.mean())
              << ", worst case: "
              << TablePrinter::pct(err_stats.max()) << "\n";

    // Where the OS invocations go that are not predicted: each
    // Accelerated cell's detailed runs split by the predictor's
    // reason for them. The predictor's counters partition the
    // detailed runs, so the five shares sum to 100%.
    std::cout << "\ncoverage split (share of OS invocations, "
                 "Accelerated cells):\n";
    TablePrinter split({"bench", "coverage", "warm-up", "learning",
                        "audits", "audit re-warm"});
    for (const auto &name : spec.workloads) {
        const CellResult &pred =
            *sweep.find(name, RunMode::Accelerated);
        const RunTotals &t = pred.totals;
        const ServicePredictor::Stats &st = pred.stats;
        const double inv = static_cast<double>(t.osInvocations);
        auto share = [&](std::uint64_t n) {
            return TablePrinter::pct(
                inv > 0 ? static_cast<double>(n) / inv : 0.0);
        };
        split.addRow({name, share(t.osPredicted), share(st.warmupRuns),
                      share(st.learnedRuns), share(st.audits),
                      share(st.auditWarmupRuns)});
    }
    split.print(std::cout);

    std::cout << "\nsweep: " << sweep.cells.size() << " cells in "
              << TablePrinter::fmt(sweep.wallSeconds, 2) << " s on "
              << sweep.threads << " thread(s)\n";

    paperNote(
        "App+OS Pred tracks full-system closely (avg 3.2% error, "
        "worst 4.2% in du); App-Only wildly underestimates "
        "execution time for the OS-intensive set.");
    return 0;
}
