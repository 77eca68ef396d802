#include "plt.hh"

#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace osp
{

PerfLookupTable::PerfLookupTable(double range_frac)
    : rangeFrac_(range_frac)
{
    if (range_frac <= 0.0 || range_frac >= 1.0)
        osp_fatal("PerfLookupTable range fraction must be in (0,1)");
}

bool
PerfLookupTable::record(const ServiceMetrics &metrics)
{
    if (const ScaledCluster *hit = match(metrics.insts)) {
        clusters[static_cast<std::size_t>(hit - clusters.data())]
            .add(metrics);
        return false;
    }
    clusters.emplace_back(metrics, rangeFrac_);
    return true;
}

const ScaledCluster *
PerfLookupTable::match(InstCount insts) const
{
    const ScaledCluster *best = nullptr;
    double best_dist = std::numeric_limits<double>::infinity();
    for (const auto &cluster : clusters) {
        if (cluster.matches(insts)) {
            double d = cluster.distance(insts);
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
