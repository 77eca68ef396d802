#include "plt.hh"

#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace osp
{

PerfLookupTable::PerfLookupTable(double range_frac, bool use_mix)
    : rangeFrac_(range_frac), useMix_(use_mix)
{
    if (range_frac <= 0.0 || range_frac >= 1.0)
        osp_fatal("PerfLookupTable range fraction must be in (0,1)");
}

bool
PerfLookupTable::record(const ServiceMetrics &metrics)
{
    // Find the matching cluster with the closest centroid.
    ScaledCluster *best = nullptr;
    double best_dist = std::numeric_limits<double>::infinity();
    for (auto &cluster : clusters) {
        if (cluster.matches(metrics.insts) &&
            (!useMix_ || cluster.matchesMix(metrics.signature()))) {
            double d = cluster.distance(metrics.insts);
            if (d < best_dist) {
                best_dist = d;
                best = &cluster;
            }
        }
    }
    if (best) {
        best->add(metrics);
        return false;
    }
    clusters.emplace_back(metrics, rangeFrac_);
    return true;
}

const ScaledCluster *
PerfLookupTable::match(const Signature &sig) const
{
    const ScaledCluster *best = nullptr;
    double best_dist = std::numeric_limits<double>::infinity();
    for (const auto &cluster : clusters) {
        if (cluster.matches(sig.insts) &&
            (!useMix_ || !sig.hasMix || cluster.matchesMix(sig))) {
            double d = cluster.distance(sig.insts);
            if (d < best_dist) {
                best_dist = d;
                best = &cluster;
            }
        }
    }
    return best;
}

const ScaledCluster *
PerfLookupTable::closest(InstCount insts) const
{
    const ScaledCluster *best = nullptr;
    double best_dist = std::numeric_limits<double>::infinity();
    for (const auto &cluster : clusters) {
        double d = cluster.distance(insts);
        if (d < best_dist) {
            best_dist = d;
            best = &cluster;
        }
    }
    return best;
}

std::vector<ClusterSnapshot>
PerfLookupTable::snapshotAll() const
{
    std::vector<ClusterSnapshot> out;
    out.reserve(clusters.size());
    for (const auto &cluster : clusters)
        out.push_back(cluster.snapshot());
    return out;
}

void
PerfLookupTable::restore(
    const std::vector<ClusterSnapshot> &snapshots)
{
    clusters.clear();
    outliers_.clear();
    for (const auto &s : snapshots)
        clusters.emplace_back(s, rangeFrac_);
    // Mix statistics are not serialized; mix matching cannot apply
    // to restored tables.
    useMix_ = false;
}

OutlierEntry &
PerfLookupTable::recordOutlier(InstCount insts,
                               std::uint64_t invocation_index)
{
    OutlierEntry *best = nullptr;
    double best_dist = std::numeric_limits<double>::infinity();
    for (auto &entry : outliers_) {
        if (entry.matches(insts, rangeFrac_)) {
            double d = std::fabs(static_cast<double>(insts) -
                                 entry.centroid);
            if (d < best_dist) {
                best_dist = d;
                best = &entry;
            }
        }
    }
    if (!best) {
        outliers_.emplace_back();
        best = &outliers_.back();
        best->centroid = static_cast<double>(insts);
    } else {
        // Running-mean centroid update.
        double n = static_cast<double>(best->matchCount);
        best->centroid =
            (best->centroid * n + static_cast<double>(insts)) /
            (n + 1.0);
    }
    best->matchCount += 1;
    best->occurredAt.push_back(invocation_index);
    return *best;
}

} // namespace osp
