#include "service_predictor.hh"

#include <algorithm>
#include <cmath>

#include "stats/learning_window.hh"
#include "util/logging.hh"

namespace osp
{

ServicePredictor::ServicePredictor(const PredictorParams &p)
    : params(p),
      window(p.learningWindow
                 ? p.learningWindow
                 : learningWindowSize(p.pMin, p.doc)),
      plt_(p.clusterRange),
      policy_(RelearnPolicy::make(p.relearn))
{
    if (params.warmupInvocations == 0)
        mode_ = Mode::Learning;
}

ServicePredictor::Lookup
ServicePredictor::lookup(InstCount insts) const
{
    Lookup out;
    const ScaledCluster *cluster = plt_.match(insts);
    out.matched = (cluster != nullptr);
    if (!cluster)
        cluster = plt_.closest(insts);
    if (!cluster)
        return out;
    // The index is resolved here, against the table as it stands at
    // lookup time, and returned by value: callers hold an index that
    // stays meaningful for the ledger even if a later drift reset or
    // re-learning window grows (and reallocates) the cluster vector.
    out.cluster = static_cast<std::uint32_t>(
        cluster - plt_.allClusters().data());
    out.hasSource = true;
    out.metrics = cluster->predict();
    out.cyclesSpread = cluster->cyclesStats().stddev();
    return out;
}

void
ServicePredictor::attachTelemetry(obs::Telemetry *telemetry,
                                  const std::string &component,
                                  std::uint8_t service_index)
{
    telemetry_ = telemetry;
    serviceIndex_ = service_index;
    if (!telemetry) {
        cDecideDetail_ = nullptr;
        cDecideEmulate_ = nullptr;
        cPredicted_ = nullptr;
        cOutliers_ = nullptr;
        cRelearn_ = nullptr;
        cClustersCreated_ = nullptr;
        cAudits_ = nullptr;
        cAuditFailures_ = nullptr;
        cDriftResets_ = nullptr;
        gClusters_ = nullptr;
        hPredictedInsts_ = nullptr;
        return;
    }
    obs::Registry &reg = telemetry->registry;
    cDecideDetail_ = &reg.counter(component, "decide_detail");
    cDecideEmulate_ = &reg.counter(component, "decide_emulate");
    cPredicted_ = &reg.counter(component, "predicted_runs");
    cOutliers_ = &reg.counter(component, "outliers");
    cRelearn_ = &reg.counter(component, "relearn_events");
    cClustersCreated_ = &reg.counter(component, "clusters_created");
    cAudits_ = &reg.counter(component, "audits");
    cAuditFailures_ = &reg.counter(component, "audit_failures");
    cDriftResets_ = &reg.counter(component, "drift_resets");
    gClusters_ = &reg.gauge(component, "plt_clusters");
    hPredictedInsts_ =
        &reg.histogram(component, "predicted_insts");
}

void
ServicePredictor::enterMode(Mode to)
{
    if (to == mode_)
        return;
    trace(obs::TraceEventKind::ModeTransition,
          static_cast<std::uint64_t>(mode_),
          static_cast<std::uint64_t>(to));
    mode_ = to;
    // A learning window shifts the cluster means the audit errors
    // were measured against, so the accumulated evidence no longer
    // describes the table that will be predicting afterwards.
    if (mode_ == Mode::Learning)
        auditErr_.clear();
}

void
ServicePredictor::auditDriftReset(const ServiceMetrics &metrics,
                                  std::uint32_t cluster_idx)
{
    // Sustained drift: re-enter a learning window *without*
    // clearing the table. The fresh window's samples pull each
    // cluster's running means toward current behaviour; if drift
    // persists, later audits trigger again and the means converge
    // geometrically — while a noisy-but-stationary service loses
    // nothing. The implicated cluster's history weight is clamped
    // to one window's worth of samples first: a long-lived cluster
    // holds thousands of members, and without the decay a 100-
    // sample window could never move its mean off the stale value
    // the audits just disproved.
    if (cluster_idx != obs::accuracyNoCluster)
        plt_.decayCluster(cluster_idx, window);
    consecutiveAuditFailures = 0;
    ++stats_.driftResets;
    if (cDriftResets_)
        cDriftResets_->inc();
    ++stats_.relearnEvents;
    if (cRelearn_)
        cRelearn_->inc();
    trace(obs::TraceEventKind::Relearn, 1, window);
    enterMode(Mode::Learning);
    phaseCount = 0;
    recordSample(metrics);
    ++phaseCount;
}

void
ServicePredictor::recordSample(const ServiceMetrics &metrics)
{
    bool fresh = plt_.record(metrics);
    if (fresh && cClustersCreated_)
        cClustersCreated_->inc();
    if (gClusters_)
        gClusters_->set(static_cast<double>(plt_.numClusters()));
}

bool
ServicePredictor::warmupStable() const
{
    std::uint64_t w = params.stabilityWindow;
    if (w == 0)
        return true;
    // Too few samples to assess drift: do not extend the warm-up
    // beyond the configured minimum.
    if (warmupCpi.size() < 2 * w)
        return true;
    double recent = 0.0;
    double prior = 0.0;
    std::size_t n = warmupCpi.size();
    for (std::size_t i = n - w; i < n; ++i)
        recent += warmupCpi[i];
    for (std::size_t i = n - 2 * w; i < n - w; ++i)
        prior += warmupCpi[i];
    if (prior <= 0.0)
        return true;
    return std::fabs(recent - prior) / prior <
           params.stabilityTolerance;
}

bool
ServicePredictor::decideDetail()
{
    if (mode_ != Mode::Predicting) {
        if (cDecideDetail_)
            cDecideDetail_->inc();
        return true;
    }
    if (auditBurstLeft == 0 && params.auditEvery &&
        ++sinceAudit >= params.auditEvery) {
        // Audit due: schedule a burst of auditWarmup re-warm runs
        // followed by the audited invocation itself, so the audit
        // measures warm-cache behaviour comparable to what the
        // clusters learned (see PredictorParams::auditWarmup).
        sinceAudit = 0;
        auditBurstLeft = params.auditWarmup + 1;
    }
    if (auditBurstLeft > 0) {
        --auditBurstLeft;
        if (auditBurstLeft == 0)
            auditPending = true;
        else
            auditWarming = true;
        if (cDecideDetail_)
            cDecideDetail_->inc();
        return true;
    }
    if (cDecideEmulate_)
        cDecideEmulate_->inc();
    return false;
}

void
ServicePredictor::recordDetailed(const ServiceMetrics &metrics)
{
    if (auditWarming && mode_ == Mode::Predicting) {
        // Sacrificial re-warm run before an audit: its whole point
        // is to absorb the cold-cache transient, so the sample is
        // discarded — folding it into a cluster would poison the
        // mean, and auditing it would report the very phantom
        // error the warm-up exists to remove.
        auditWarming = false;
        ++stats_.auditWarmupRuns;
        return;
    }
    auditWarming = false;
    if (auditPending && mode_ == Mode::Predicting) {
        // Audit sample: compare reality with what we would have
        // predicted for this signature.
        auditPending = false;
        ++stats_.audits;
        if (cAudits_)
            cAudits_->inc();
        // The lookup resolves the producing cluster's index before
        // anything below can mutate the table, so ledger
        // attribution and the drift reset target stay pinned to
        // the cluster that actually made the prediction.
        Lookup audit = lookup(metrics.insts);
        bool failed = true;
        bool ciDrift = false;
        ServiceMetrics predictedMetrics;
        if (audit.hasSource) {
            // Variance-aware check: a deviation only fails the
            // audit if it exceeds both the relative tolerance and
            // three standard deviations of the cluster's own
            // historical spread — ordinary within-cluster noise
            // must not trigger drift resets.
            predictedMetrics = audit.metrics;
            predictedMetrics.insts = metrics.insts;
            double predicted =
                static_cast<double>(predictedMetrics.cycles);
            double actual = static_cast<double>(metrics.cycles);
            double spread = 3.0 * audit.cyclesSpread;
            double bound = std::max(
                params.auditTolerance * predicted, spread);
            failed = predicted > 0.0 &&
                     std::fabs(actual - predicted) > bound;
            if (params.auditCiMinSamples && actual > 0.0) {
                // Statistical drift test: the per-audit bound
                // above is 3-sigma-wide for a noisy cluster, so a
                // biased-but-noisy cluster can pass every single
                // audit while its *mean* error is statistically
                // unambiguous. Accumulate the signed relative
                // error per cluster and trigger a reset when the
                // Student-t 95% CI on the mean lies entirely
                // outside the tolerance band.
                RunningStats &err = auditErr_[audit.cluster];
                err.add((predicted - actual) / actual);
                if (err.count() >= params.auditCiMinSamples) {
                    double ci = obs::accuracyCi95(err);
                    double band = params.auditMeanTolerance;
                    ciDrift = err.mean() - ci > band ||
                              err.mean() + ci < -band;
                }
            }
        }
        if (telemetry_ && audit.hasSource) {
            // Route the full predicted-vs-actual comparison into
            // the accuracy ledger under the auditing cluster's
            // identity (observational only).
            obs::AuditSample sample;
            sample.predictedCycles =
                static_cast<double>(predictedMetrics.cycles);
            sample.actualCycles =
                static_cast<double>(metrics.cycles);
            sample.predictedL2Misses = static_cast<double>(
                predictedMetrics.mem.l2Misses);
            sample.actualL2Misses =
                static_cast<double>(metrics.mem.l2Misses);
            sample.predictedIpc = predictedMetrics.ipc();
            sample.actualIpc = metrics.ipc();
            sample.failed = failed;
            telemetry_->accuracy.noteAudit(serviceIndex_,
                                           audit.cluster, sample);
        }
        if (failed) {
            // Drift evidence: do NOT fold the sample into the
            // cluster (it would inflate the spread and drag the
            // mean just enough to mask further failures).
            ++stats_.auditFailures;
            if (cAuditFailures_)
                cAuditFailures_->inc();
            ++consecutiveAuditFailures;
            trace(obs::TraceEventKind::Audit, 0,
                  consecutiveAuditFailures);
            if (consecutiveAuditFailures >=
                    params.auditTriggerCount ||
                ciDrift)
                auditDriftReset(metrics, audit.cluster);
            return;
        }
        trace(obs::TraceEventKind::Audit, 1, 0);
        consecutiveAuditFailures = 0;
        if (ciDrift) {
            // Every individual audit passed, but the accumulated
            // mean error is significant: the slow-drift case the
            // consecutive-failure trigger cannot see.
            auditDriftReset(metrics, audit.cluster);
            return;
        }
        // A passing audit refreshes the matched cluster.
        recordSample(metrics);
        return;
    }
    auditPending = false;

    switch (mode_) {
      case Mode::Warmup:
        ++stats_.warmupRuns;
        ++phaseCount;
        if (metrics.insts) {
            warmupCpi.push_back(
                static_cast<double>(metrics.cycles) /
                static_cast<double>(metrics.insts));
        }
        if (phaseCount >= params.warmupInvocations &&
            (warmupStable() ||
             phaseCount >= params.maxWarmupInvocations)) {
            enterMode(Mode::Learning);
            phaseCount = 0;
            warmupCpi.clear();
            warmupCpi.shrink_to_fit();
        }
        return;
      case Mode::Learning:
        ++stats_.learnedRuns;
        recordSample(metrics);
        ++phaseCount;
        if (phaseCount >= window) {
            enterMode(Mode::Predicting);
            phaseCount = 0;
        }
        return;
      case Mode::Predicting:
        // A detailed run while predicting (e.g. the controller was
        // overridden): still learn from it.
        ++stats_.learnedRuns;
        recordSample(metrics);
        return;
    }
    osp_panic("ServicePredictor: bad mode");
}

void
ServicePredictor::restoreTable(
    const std::vector<ClusterSnapshot> &snapshots)
{
    plt_.restore(snapshots);
    enterMode(snapshots.empty() ? Mode::Warmup : Mode::Predicting);
    phaseCount = 0;
    warmupCpi.clear();
    // A restored table is a new index epoch with no audit history:
    // every accumulator measured the *previous* table, and an
    // in-flight audit burst was scheduled against it too. Leaking
    // any of it would let a warm-started run inherit drift evidence
    // it never observed and spuriously drift-reset (or audit the
    // first restored invocation against a half-finished burst).
    sinceAudit = 0;
    auditBurstLeft = 0;
    auditPending = false;
    auditWarming = false;
    consecutiveAuditFailures = 0;
    auditErr_.clear();
    lastMatchedCluster_ = obs::accuracyNoCluster;
    if (gClusters_)
        gClusters_->set(static_cast<double>(plt_.numClusters()));
}

ServiceMetrics
ServicePredictor::predict(InstCount insts,
                          std::uint64_t invocation_index,
                          bool *was_outlier)
{
    ++stats_.predictedRuns;
    if (cPredicted_)
        cPredicted_->inc();
    if (hPredictedInsts_)
        hPredictedInsts_->observe(insts);

    // Prediction, cluster identity and spread are all captured by the
    // lookup itself: nothing downstream (outlier bookkeeping,
    // re-learning transitions) can invalidate them.
    Lookup r = lookup(insts);
    bool outlier = !r.matched;
    if (was_outlier)
        *was_outlier = outlier;

    if (outlier) {
        ++stats_.outliers;
        if (cOutliers_)
            cOutliers_->inc();
        trace(obs::TraceEventKind::Outlier, insts,
              plt_.numOutlierEntries());
        if (policy_->onOutlier(plt_, insts, invocation_index)) {
            // Re-learning period: another full window of detailed
            // simulation for this service.
            ++stats_.relearnEvents;
            if (cRelearn_)
                cRelearn_->inc();
            trace(obs::TraceEventKind::Relearn, 0, window);
            plt_.clearOutliers();
            enterMode(Mode::Learning);
            phaseCount = 0;
        }
    } else {
        trace(obs::TraceEventKind::ClusterMatch, r.cluster, insts);
    }

    lastMatchedCluster_ = r.cluster;

    ServiceMetrics prediction;
    if (r.hasSource)
        prediction = r.metrics;
    prediction.insts = insts;
    if (telemetry_) {
        // Book the predicted-cycle mass under the producing cluster
        // so end-to-end error can be attributed back to it.
        telemetry_->accuracy.notePrediction(
            serviceIndex_, lastMatchedCluster_, prediction.cycles,
            outlier);
    }
    return prediction;
}

} // namespace osp
