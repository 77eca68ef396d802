/**
 * @file
 * Extension experiment 1: does the technique generalize to a
 * transaction-processing workload?
 *
 * The paper's introduction motivates full-system simulation with
 * "web servers, system tools, network processing, and transaction
 * processing", but its evaluation covers only the first three. The
 * oltp workload (see src/workload/oltp.hh) supplies the fourth; the
 * predictor runs with the same defaults calibrated on the paper's
 * five benchmarks — an out-of-sample test of the method.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);

    banner("Extension 1",
           "generalization to transaction processing (oltp)");

    SweepSpec spec =
        benchSweep("ext1", {"oltp"}, experimentAccuracyScale);
    spec.modes = {RunMode::Full, RunMode::AppOnly,
                  RunMode::Accelerated};
    spec.predictors = {{"statistical", experimentPredictor()}};
    SweepResult sweep = runBenchSweep(spec, argc, argv);
    const RunTotals &full = sweep.find("oltp", RunMode::Full)->totals;
    const RunTotals &app = sweep.find("oltp", RunMode::AppOnly)->totals;
    const CellResult &pred = *sweep.find("oltp", RunMode::Accelerated);

    TablePrinter table({"metric", "value"});
    table.addRow({"total instructions",
                  std::to_string(full.totalInsts())});
    table.addRow({"OS instruction fraction",
                  TablePrinter::pct(full.osInstFraction())});
    table.addRow({"OS invocations",
                  std::to_string(full.osInvocations)});
    table.addRow(
        {"app-only exec-time ratio",
         TablePrinter::fmt(
             static_cast<double>(full.totalCycles()) /
                 static_cast<double>(app.totalCycles()),
             1) +
             "x"});
    table.addRow({"prediction coverage",
                  TablePrinter::pct(pred.totals.coverage())});
    table.addRow({"exec-time error", TablePrinter::pct(pred.cycleError)});
    table.addRow(
        {"IPC error", TablePrinter::pct(absError(
                          pred.totals.ipc(), full.ipc()))});
    table.addRow({"estimated speedup (Eq. 10)",
                  TablePrinter::fmt(pred.estSpeedupR133, 2) + "x"});
    table.print(std::cout);

    std::cout << "\nper-service coverage:\n";
    TablePrinter per({"service", "invocations", "predicted"});
    for (int s = 0; s < numServiceTypes; ++s) {
        const auto &svc = pred.totals.perService[s];
        if (!svc.invocations)
            continue;
        per.addRow({serviceName(static_cast<ServiceType>(s)),
                    std::to_string(svc.invocations),
                    std::to_string(svc.predicted)});
    }
    per.print(std::cout);

    paperNote(
        "no paper counterpart — the out-of-sample check: accuracy "
        "and coverage should land in the same band as the paper's "
        "five OS-intensive benchmarks without retuning.");
    return 0;
}
