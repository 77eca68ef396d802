/**
 * @file
 * The prediction-accuracy ledger: audit-driven error distributions
 * per (service type, PLT cluster).
 *
 * The paper's headline claims are accuracy claims (3.2% average
 * execution-time error, Sec. 5), yet a live run can normally only
 * check them offline, against a full-detail oracle re-run. The
 * predictor's audit samples (every auditEvery-th prediction is
 * simulated in detail and compared with what the PLT would have
 * said) are exactly an online error estimate — this module stops
 * discarding them. For every audited prediction it accumulates the
 * signed relative error of cycles, L2 misses and IPC into Welford
 * accumulators keyed by (service, cluster), puts a Student-t 95%
 * confidence interval on the mean relative cycle error, and flags
 * *drift* when that interval lies entirely outside the configured
 * audit tolerance band — i.e. when the data says the cluster is
 * systematically wrong, not merely noisy.
 *
 * Because each prediction also books its predicted-cycle mass under
 * the cluster that produced it, the end-to-end execution-time error
 * decomposes into named culprits: contribution of a cluster ~
 * mean_rel_err x predicted_cycles / total_cycles (the "error
 * budget"). The rollup extrapolates the pooled audit error to the
 * whole run the same way, which oracle-enabled sweeps (full-detail
 * baseline present) can cross-check against ground truth.
 *
 * Like the rest of obs/, the ledger is purely observational: it is
 * fed through the Telemetry sink, never influences a decision or an
 * RNG draw, and costs nothing when no sink is attached.
 */

#ifndef OSP_OBS_ACCURACY_HH
#define OSP_OBS_ACCURACY_HH

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "stats/running_stats.hh"

namespace osp::obs
{

/** Cluster id used when a prediction had no cluster at all (empty
 *  PLT — cannot happen in normal operation). */
inline constexpr std::uint32_t accuracyNoCluster = 0xffffffffu;

/** One audited prediction: what the PLT would have predicted for
 *  the signature vs. what detailed simulation measured. */
struct AuditSample
{
    double predictedCycles = 0.0;
    double actualCycles = 0.0;
    double predictedL2Misses = 0.0;
    double actualL2Misses = 0.0;
    double predictedIpc = 0.0;
    double actualIpc = 0.0;
    /** The predictor's verdict (tolerance/3-sigma check). */
    bool failed = false;
};

/** Serializable per-(service, cluster) slice of the ledger. */
struct AccuracyEntry
{
    std::uint8_t service = 0;
    /** Index into the service's PLT cluster array (the cluster
     *  ServicePredictor::predict() predicted from). */
    std::uint32_t cluster = accuracyNoCluster;

    std::uint64_t predictions = 0;
    /** Of predictions, those with an outlier signature (predicted
     *  from the closest cluster — this one). */
    std::uint64_t outlierPredictions = 0;
    /** Predicted-cycle mass booked under this cluster. */
    std::uint64_t predictedCycles = 0;
    std::uint64_t audits = 0;
    std::uint64_t auditFailures = 0;

    /** Signed relative cycle error (pred - actual) / actual over
     *  audit samples, in moments form (see RunningStats). */
    std::uint64_t errCount = 0;
    double errMean = 0.0;
    double errM2 = 0.0;
    double errMin = 0.0;
    double errMax = 0.0;
    /** Signed relative L2-miss / IPC errors (means only; samples
     *  with a zero denominator are skipped). */
    std::uint64_t missCount = 0;
    double missMean = 0.0;
    std::uint64_t ipcCount = 0;
    double ipcMean = 0.0;

    // Derived at snapshot time:
    /** Half-width of the two-sided 95% CI on errMean; valid only
     *  when hasCi (at least two audit samples). */
    double ci95 = 0.0;
    bool hasCi = false;
    /** True when the 95% CI lies entirely outside the +-tolerance
     *  band: statistically confident systematic error. */
    bool drift = false;

    /** Reconstruct the error accumulator (merging/rollups). */
    RunningStats
    errStats() const
    {
        return RunningStats::fromMoments(errCount, errMean, errM2,
                                         errMin, errMax);
    }
};

/** Deterministic, serializable state of one ledger. */
struct AccuracySnapshot
{
    /** The audit tolerance the drift flags were computed against. */
    double tolerance = 0.0;
    /** End-of-run totals (from Machine): the error-budget
     *  denominator and the predicted-cycle mass. */
    std::uint64_t totalCycles = 0;
    std::uint64_t predictedCycles = 0;
    /** Sorted by (service, cluster). */
    std::vector<AccuracyEntry> entries;

    bool empty() const { return entries.empty(); }
};

/** Whole-snapshot rollup: pooled audit statistics and the
 *  extrapolated end-to-end error estimate. */
struct AccuracyRollup
{
    std::uint64_t predictions = 0;
    std::uint64_t outlierPredictions = 0;
    std::uint64_t predictedCycles = 0;  //!< booked by the ledger
    std::uint64_t audits = 0;
    std::uint64_t auditFailures = 0;
    /** Pooled signed relative cycle error over all audit samples. */
    RunningStats err;
    /** 95% CI half-width on err.mean(); valid when hasCi. */
    double ci95 = 0.0;
    bool hasCi = false;
    /**
     * Audit-estimated end-to-end execution-time error: the pooled
     * mean relative error scaled by the predicted share of total
     * cycles — comparable to the oracle's (accel-full)/full. Valid
     * when hasEstimate (audits exist and run totals were noted).
     *
     * estCi95 (valid with hasCi) is the estimate's uncertainty,
     * two terms: the audit CI scaled by the predicted share
     * (sampling noise of the audited mass), plus the unaudited
     * share of cycles times the per-invocation error stddev — the
     * detailed runs and unaudited clusters making up that share
     * execute under different thermal conditions than the oracle
     * (post-emulation cold starts in learning/re-learning windows)
     * and their deviation is unobservable online, so it is bounded
     * by the dispersion a typical audited invocation shows.
     */
    double estRelTotalErr = 0.0;
    double estCi95 = 0.0;
    bool hasEstimate = false;
    /** Clusters whose CI excludes the tolerance band. */
    std::uint64_t driftingClusters = 0;
    /** Predicted-cycle mass in clusters with no audit sample —
     *  the unknown part of the error budget. */
    std::uint64_t unattributedCycles = 0;
};

AccuracyRollup rollupAccuracy(const AccuracySnapshot &snapshot);

/** Two-sided 95% Student-t CI half-width on the mean of @p stats
 *  (0.0 with fewer than two samples — gate on count() >= 2). */
double accuracyCi95(const RunningStats &stats);

/** See file comment. */
class AccuracyLedger
{
  public:
    /** Audit tolerance the drift test uses (PredictorParams::
     *  auditTolerance; the Accelerator sets it on attach). */
    void setTolerance(double tolerance) { tolerance_ = tolerance; }

    /** Book one prediction's cycle mass under the cluster that
     *  produced it. */
    void notePrediction(std::uint8_t service, std::uint32_t cluster,
                        std::uint64_t predicted_cycles,
                        bool outlier);

    /** Record one audited prediction. */
    void noteAudit(std::uint8_t service, std::uint32_t cluster,
                   const AuditSample &sample);

    /** End-of-run totals (Machine::run()): the denominator that
     *  turns per-cluster error into an error budget. */
    void
    noteRunTotals(std::uint64_t total_cycles,
                  std::uint64_t predicted_cycles)
    {
        totalCycles_ = total_cycles;
        predictedCycles_ = predicted_cycles;
    }

    /** Deterministic snapshot, sorted by (service, cluster), with
     *  the derived CI and drift fields filled in. */
    AccuracySnapshot snapshot() const;

  private:
    struct Accum
    {
        std::uint64_t predictions = 0;
        std::uint64_t outlierPredictions = 0;
        std::uint64_t predictedCycles = 0;
        std::uint64_t audits = 0;
        std::uint64_t auditFailures = 0;
        RunningStats err;
        RunningStats miss;
        RunningStats ipc;
    };

    using Key = std::pair<std::uint8_t, std::uint32_t>;

    double tolerance_ = 0.0;
    std::uint64_t totalCycles_ = 0;
    std::uint64_t predictedCycles_ = 0;
    std::map<Key, Accum> entries_;
};

} // namespace osp::obs

#endif // OSP_OBS_ACCURACY_HH
