#include "accelerator.hh"

#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace osp
{

Accelerator::Accelerator(const PredictorParams &params)
    : params_(params)
{
}

ServicePredictor &
Accelerator::predictorRef(ServiceType type)
{
    auto idx = static_cast<int>(type);
    if (idx < 0 || idx >= numServiceTypes)
        osp_panic("Accelerator: bad service type ", idx);
    if (!predictors[idx]) {
        predictors[idx] =
            std::make_unique<ServicePredictor>(params_);
        if (telemetry_) {
            predictors[idx]->attachTelemetry(
                telemetry_, static_cast<std::uint8_t>(idx));
        }
    }
    return *predictors[idx];
}

void
Accelerator::setTelemetry(obs::Telemetry *telemetry)
{
    telemetry_ = telemetry;
    // The accuracy ledger's drift flag is a CI-on-the-mean test, so
    // it judges against the same band the predictors' statistical
    // drift trigger uses — a flagged cluster is one the trigger
    // would reset (or already has).
    if (telemetry)
        telemetry->accuracy.setTolerance(params_.auditMeanTolerance);
    for (int t = 0; t < numServiceTypes; ++t) {
        if (!predictors[t])
            continue;
        predictors[t]->attachTelemetry(
            telemetry, static_cast<std::uint8_t>(t));
    }
}

void
Accelerator::publishTelemetry() const
{
    if (!telemetry_)
        return;
    for (int t = 0; t < numServiceTypes; ++t) {
        if (predictors[t]) {
            predictors[t]->publish(
                telemetry_->registry,
                std::string("predictor.") +
                    serviceName(static_cast<ServiceType>(t)));
        }
    }
}

DetailLevel
Accelerator::chooseLevel(ServiceType type)
{
    return predictorRef(type).decideDetail() ? DetailLevel::OooCache
                                             : DetailLevel::Emulate;
}

ServiceController::Prediction
Accelerator::onServiceEnd(const IntervalOutcome &outcome)
{
    ServicePredictor &pred = predictorRef(outcome.type);
    Prediction result;

    if (outcome.detailed) {
        ServiceMetrics m;
        m.insts = outcome.insts;
        m.cycles = outcome.cycles;
        m.mem = outcome.mem;
        pred.recordDetailed(m);
        return result;
    }

    ServiceMetrics m = pred.predict(outcome.insts, outcome.invocation);
    result.cycles = m.cycles;
    result.mem = m.mem;
    return result;
}

namespace
{

/** Learned tables in a profile: (service type, its clusters). */
using ProfileTables =
    std::vector<std::pair<int, std::vector<ClusterSnapshot>>>;

/** The "ospredict-profile v1" text of @p tables. */
void
writeProfile(std::ostream &os, const ProfileTables &tables)
{
    os << "ospredict-profile v1\n";
    for (const auto &[type, snapshots] : tables) {
        os << "service " << type << " " << snapshots.size() << "\n";
        for (const auto &s : snapshots) {
            os << s.count << " " << s.instMean << " " << s.instM2
               << " " << s.cyclesMean << " " << s.cyclesM2 << " "
               << s.ipcMean << " " << s.l1iAccMean << " "
               << s.l1iMissMean << " " << s.l1dAccMean << " "
               << s.l1dMissMean << " " << s.l2AccMean << " "
               << s.l2MissMean << "\n";
        }
    }
    os << "end\n";
}

} // namespace

void
Accelerator::saveState(std::ostream &os) const
{
    ProfileTables tables;
    for (int t = 0; t < numServiceTypes; ++t) {
        if (!predictors[t])
            continue;
        auto snapshots = predictors[t]->snapshotTable();
        if (!snapshots.empty())
            tables.push_back({t, std::move(snapshots)});
    }
    writeProfile(os, tables);
}

bool
Accelerator::loadState(std::istream &is)
{
    // Every row is parsed before any table changes, so a stream that
    // fails part-way leaves the accelerator as it was. The row count
    // is read from the stream and is not trusted to size anything.
    const std::string text(std::istreambuf_iterator<char>(is), {});
    std::istringstream in(text);
    std::string header;
    std::string version;
    if (!(in >> header >> version) || header != "ospredict-profile" ||
        version != "v1") {
        return false;
    }
    ProfileTables tables;
    std::string word;
    while (in >> word) {
        if (word == "end") {
            // Only what saveState() writes loads: services in
            // order, no empty table, every number spelt as written
            // and nothing after "end". A corrupt byte that still
            // parses cannot slip past as a different table.
            std::ostringstream canonical;
            writeProfile(canonical, tables);
            if (canonical.str() != text)
                return false;
            for (const auto &[type, snapshots] : tables)
                predictorRef(static_cast<ServiceType>(type))
                    .restoreTable(snapshots);
            return true;
        }
        if (word != "service")
            return false;
        int type = -1;
        std::size_t count = 0;
        if (!(in >> type >> count) || type < 0 ||
            type >= numServiceTypes || count == 0 ||
            (!tables.empty() && type <= tables.back().first)) {
            return false;
        }
        tables.push_back({type, {}});
        std::vector<ClusterSnapshot> &snapshots = tables.back().second;
        for (std::size_t i = 0; i < count; ++i) {
            ClusterSnapshot s;
            // A cluster has a member: with none, a restored
            // cluster would drop the means it was given.
            if (!(in >> s.count >> s.instMean >> s.instM2 >>
                  s.cyclesMean >> s.cyclesM2 >> s.ipcMean >>
                  s.l1iAccMean >> s.l1iMissMean >> s.l1dAccMean >>
                  s.l1dMissMean >> s.l2AccMean >> s.l2MissMean) ||
                s.count == 0) {
                return false;
            }
            snapshots.push_back(s);
        }
    }
    return false;  // missing "end"
}

ServicePredictor::Stats
Accelerator::aggregateStats() const
{
    ServicePredictor::Stats total;
    for (const auto &p : predictors) {
        if (!p)
            continue;
        const auto &s = p->stats();
        total.warmupRuns += s.warmupRuns;
        total.learnedRuns += s.learnedRuns;
        total.predictedRuns += s.predictedRuns;
        total.outliers += s.outliers;
        total.relearnEvents += s.relearnEvents;
        total.audits += s.audits;
        total.auditFailures += s.auditFailures;
        total.auditWarmupRuns += s.auditWarmupRuns;
        total.driftResets += s.driftResets;
    }
    return total;
}

} // namespace osp
