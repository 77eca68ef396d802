/**
 * @file
 * Ablation 5: online learning vs reused offline profiles.
 *
 * The paper's Sec. 2 argues that sampling approaches whose samples
 * are "determined in one run but applied in another" cannot capture
 * run-to-run variation of OS behaviour, which is why its learning
 * is fully online. This bench quantifies that: a profile (every
 * service's learned clusters) is saved from a training run and
 * reused — frozen, no re-learning, no audits — on (a) another run
 * of the same workload with a different seed, and (b) a different
 * workload. Online learning on the target run is the baseline.
 *
 * The reuse is the runner's warm start (RunnerOptions::warmProfiles,
 * the path `sweep --plt warm` takes) fed with the training sweep's
 * end-of-run profiles.
 */

#include <map>
#include <sstream>

#include "common.hh"

#include "core/accelerator.hh"
#include "util/logging.hh"

int
main(int argc, char **argv)
{
    using namespace osp;
    using namespace osp::bench;
    init(argc, argv);
    banner("Ablation 5",
           "online learning vs frozen offline profiles (the "
           "paper's Sec. 2 argument)");

    const std::vector<std::string> targets = {"ab-rand", "ab-seq",
                                              "iperf"};
    auto other = [](const std::string &name) {
        return std::string(name == "ab-rand" ? "ab-seq" : "ab-rand");
    };

    // Baseline: full detail and fully online learning on the
    // evaluation run.
    SweepSpec online = benchSweep("abl5", targets, experimentShapeScale);
    online.baseSeed = 1234;
    online.predictors = {{"online", experimentPredictor()}};
    SweepResult eval = runBenchSweep(online, argc, argv);

    // Profiles (every service's learned clusters) from training runs
    // at the documented seed, a different run than the evaluation.
    SweepSpec train = online;
    train.baseSeed = experimentSeed;
    train.modes = {RunMode::Accelerated};
    SweepResult trained = runBenchSweep(train, argc, argv);

    // Offline: the evaluation run warm-started from a profile and
    // frozen: no re-learning, no audits.
    PredictorParams frozen_pp =
        experimentPredictor(RelearnStrategy::BestMatch);
    frozen_pp.auditEvery = 0;  // offline: no correction mechanisms
    SweepSpec frozen = online;
    frozen.modes = {RunMode::Accelerated};
    frozen.predictors = {{"frozen", frozen_pp}};
    // The runner only warns on a profile it cannot load and learns
    // online instead, which would pass for a frozen result here.
    auto profileOf = [&](const std::string &name) {
        const std::string &profile =
            trained.find(name, RunMode::Accelerated)->pltProfile;
        Accelerator probe(frozen_pp);
        std::istringstream iss(profile);
        if (!probe.loadState(iss))
            osp_fatal("abl5: failed to load profile");
        return profile;
    };
    std::map<std::string, std::string> same_profiles;
    std::map<std::string, std::string> other_profiles;
    for (const auto &name : targets) {
        same_profiles[name] = profileOf(name);
        other_profiles[name] = profileOf(other(name));
    }
    SweepResult same = runBenchSweep(frozen, argc, argv, &same_profiles);
    SweepResult diff =
        runBenchSweep(frozen, argc, argv, &other_profiles);

    TablePrinter table({"target_run", "profile_source", "coverage",
                        "time_err"});
    for (const auto &name : targets) {
        const RunTotals &full = eval.find(name, RunMode::Full)->totals;
        auto row = [&](const char *source, const SweepResult &sweep) {
            const RunTotals &t =
                sweep.find(name, RunMode::Accelerated)->totals;
            table.addRow(
                {name, source, TablePrinter::pct(t.coverage()),
                 TablePrinter::pct(absError(
                     static_cast<double>(t.totalCycles()),
                     static_cast<double>(full.totalCycles())))});
        };
        row("online (paper)", eval);
        row("offline, same workload", same);
        row("offline, other workload", diff);
    }
    table.print(std::cout);

    paperNote(
        "OS-service behaviour is application- and run-specific "
        "(Sec. 3): frozen profiles degrade accuracy, and profiles "
        "from a different application degrade it badly — the "
        "reason the paper's learning is online.");
    return 0;
}
