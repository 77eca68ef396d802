/**
 * @file
 * The Performance Lookup Table (Sec. 4.3).
 *
 * One PLT per OS service type. Regular entries are scaled clusters
 * with performance statistics, filled during learning periods.
 * Outlier-cluster entries (Sec. 4.4) are signature-only: they track
 * emulated invocations whose signature matched no regular cluster,
 * carrying a match counter and the list of estimated probabilities
 * of occurrence (EPOs) the Statistical re-learning strategy tests.
 */

#ifndef OSP_CORE_PLT_HH
#define OSP_CORE_PLT_HH

#include <cstdint>
#include <vector>

#include "scaled_cluster.hh"

namespace osp
{

/** A signature-only outlier cluster entry (Sec. 4.4). */
struct OutlierEntry
{
    /** Running-mean signature centroid. */
    double centroid = 0.0;
    /** Members seen so far. */
    std::uint64_t matchCount = 0;
    /** Per-service invocation indices at which members occurred
     *  (for moving-window EPO computation). */
    std::vector<std::uint64_t> occurredAt;
    /** Estimated probabilities of occurrence collected so far. */
    std::vector<double> epos;

    bool
    matches(InstCount insts, double range_frac) const
    {
        auto x = static_cast<double>(insts);
        return x >= centroid * (1.0 - range_frac) &&
               x <= centroid * (1.0 + range_frac);
    }
};

/** See file comment. */
class PerfLookupTable
{
  public:
    /** @param range_frac scaled-cluster half-range */
    explicit PerfLookupTable(double range_frac = 0.05);

    /** Record one fully-simulated invocation: add to the matching
     *  cluster or create a new one. Returns true if a new cluster
     *  was created. */
    bool record(const ServiceMetrics &metrics);

    /** The best regular cluster whose range covers the signature
     *  (closest centroid on overlap), or nullptr. */
    const ScaledCluster *match(InstCount insts) const;

    /** The regular cluster with the closest centroid regardless of
     *  range (Best-Match fallback), or nullptr if the PLT is
     *  empty. */
    const ScaledCluster *closest(InstCount insts) const;

    /**
     * Register an outlier occurrence: matched against existing
     * outlier entries (creating one if necessary), appending the
     * invocation index. Returns the entry.
     */
    OutlierEntry &recordOutlier(InstCount insts,
                                std::uint64_t invocation_index);

    /** Discard all outlier entries (done when re-learning fires). */
    void clearOutliers() { outliers_.clear(); }

    /** Clamp one cluster's history weight (see
     *  ScaledCluster::decayHistory); out-of-range indices are
     *  ignored. */
    void
    decayCluster(std::size_t index, std::uint64_t max_count)
    {
        if (index < clusters.size())
            clusters[index].decayHistory(max_count);
    }

    std::size_t numClusters() const { return clusters.size(); }
    std::size_t numOutlierEntries() const { return outliers_.size(); }

    const std::vector<ScaledCluster> &allClusters() const
    {
        return clusters;
    }

    /** Serializable summaries of every regular cluster. */
    std::vector<ClusterSnapshot> snapshotAll() const;

    /** Rebuild the table from snapshots (replaces all clusters and
     *  drops outlier entries). */
    void restore(const std::vector<ClusterSnapshot> &snapshots);

  private:
    double rangeFrac_;
    std::vector<ScaledCluster> clusters;
    std::vector<OutlierEntry> outliers_;
};

} // namespace osp

#endif // OSP_CORE_PLT_HH
