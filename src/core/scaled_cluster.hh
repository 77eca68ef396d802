/**
 * @file
 * Scaled clusters (Sec. 4.2).
 *
 * A behaviour point manifests as invocations with similar dynamic
 * instruction counts. Fixed-size instruction bins are too coarse for
 * small services and too fine for large ones, so the paper uses
 * *scaled* clusters: a centroid (the running mean of member
 * signatures) with a range of centroid +- 5%. An instance matches a
 * cluster when its instruction count falls inside the range; when
 * ranges overlap, the cluster with the closest centroid wins.
 * Adding an instance updates the centroid and range.
 */

#ifndef OSP_CORE_SCALED_CLUSTER_HH
#define OSP_CORE_SCALED_CLUSTER_HH

#include <cstdint>

#include "perf_record.hh"
#include "stats/running_stats.hh"

namespace osp
{

/**
 * Serializable summary of one cluster: enough to rebuild matching
 * and prediction state (PLT persistence / cross-run reuse).
 */
struct ClusterSnapshot
{
    std::uint64_t count = 0;
    double instMean = 0.0;
    double instM2 = 0.0;
    double cyclesMean = 0.0;
    double cyclesM2 = 0.0;
    double ipcMean = 0.0;
    double l1iAccMean = 0.0;
    double l1iMissMean = 0.0;
    double l1dAccMean = 0.0;
    double l1dMissMean = 0.0;
    double l2AccMean = 0.0;
    double l2MissMean = 0.0;
};

/** See file comment. */
class ScaledCluster
{
  public:
    /**
     * Create a cluster from its first member.
     *
     * @param first      first member's performance record
     * @param range_frac half-width of the range as a fraction of the
     *                   centroid (the paper uses 0.05)
     */
    explicit ScaledCluster(const ServiceMetrics &first,
                           double range_frac = 0.05);

    /** Rebuild a cluster from a snapshot (PLT persistence). */
    ScaledCluster(const ClusterSnapshot &snapshot, double range_frac);

    /** Serializable summary of this cluster. */
    ClusterSnapshot snapshot() const;

    /** Add a member; updates the centroid, range and statistics. */
    void add(const ServiceMetrics &m);

    /**
     * Clamp the weight of the accumulated history to @p max_count
     * samples, preserving every mean (and so the centroid, range
     * and current prediction) and variance. Called on a drift
     * reset: audits proved the cluster's behaviour shifted, and a
     * re-learning window can only pull the means toward current
     * behaviour if the stale members don't outweigh it.
     */
    void decayHistory(std::uint64_t max_count);

    /** Does this signature fall inside the cluster's range? */
    bool matches(InstCount insts) const;

    /** |signature - centroid|, for closest-centroid tie-breaks. */
    double distance(InstCount insts) const;

    /**
     * Predicted performance of an instance matched to this cluster:
     * the arithmetic mean of the recorded members (Sec. 4.5). The
     * instance's own instruction count is reported by the caller;
     * everything else comes from the cluster.
     */
    ServiceMetrics predict() const;

    double centroid() const { return centroid_; }
    double rangeLo() const { return centroid_ * (1.0 - rangeFrac); }
    double rangeHi() const { return centroid_ * (1.0 + rangeFrac); }
    std::uint64_t count() const { return cycles_.count(); }

    /** Per-metric member statistics (CV analyses, Fig. 6). */
    const RunningStats &cyclesStats() const { return cycles_; }
    const RunningStats &ipcStats() const { return ipc_; }
    const RunningStats &instsStats() const { return insts_; }

  private:
    double rangeFrac;
    double centroid_ = 0.0;

    RunningStats insts_;
    RunningStats cycles_;
    RunningStats ipc_;
    RunningStats l1iAcc;
    RunningStats l1iMiss;
    RunningStats l1dAcc;
    RunningStats l1dMiss;
    RunningStats l2Acc;
    RunningStats l2Miss;
};

} // namespace osp

#endif // OSP_CORE_SCALED_CLUSTER_HH
