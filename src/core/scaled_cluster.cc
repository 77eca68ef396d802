#include "scaled_cluster.hh"

#include <cmath>

#include "util/logging.hh"

namespace osp
{

ScaledCluster::ScaledCluster(const ServiceMetrics &first,
                             double range_frac)
    : rangeFrac(range_frac)
{
    if (range_frac <= 0.0 || range_frac >= 1.0)
        osp_fatal("ScaledCluster range fraction must be in (0,1)");
    add(first);
}

ScaledCluster::ScaledCluster(const ClusterSnapshot &s,
                             double range_frac)
    : rangeFrac(range_frac)
{
    if (range_frac <= 0.0 || range_frac >= 1.0)
        osp_fatal("ScaledCluster range fraction must be in (0,1)");
    auto mk = [&](double mean, double m2 = 0.0) {
        return RunningStats::fromMoments(s.count, mean, m2, mean,
                                         mean);
    };
    insts_ = mk(s.instMean, s.instM2);
    cycles_ = mk(s.cyclesMean, s.cyclesM2);
    ipc_ = mk(s.ipcMean);
    l1iAcc = mk(s.l1iAccMean);
    l1iMiss = mk(s.l1iMissMean);
    l1dAcc = mk(s.l1dAccMean);
    l1dMiss = mk(s.l1dMissMean);
    l2Acc = mk(s.l2AccMean);
    l2Miss = mk(s.l2MissMean);
    centroid_ = s.instMean;
}

ClusterSnapshot
ScaledCluster::snapshot() const
{
    ClusterSnapshot s;
    s.count = cycles_.count();
    s.instMean = insts_.mean();
    s.instM2 = insts_.variance() * static_cast<double>(s.count);
    s.cyclesMean = cycles_.mean();
    s.cyclesM2 = cycles_.variance() * static_cast<double>(s.count);
    s.ipcMean = ipc_.mean();
    s.l1iAccMean = l1iAcc.mean();
    s.l1iMissMean = l1iMiss.mean();
    s.l1dAccMean = l1dAcc.mean();
    s.l1dMissMean = l1dMiss.mean();
    s.l2AccMean = l2Acc.mean();
    s.l2MissMean = l2Miss.mean();
    return s;
}

void
ScaledCluster::add(const ServiceMetrics &m)
{
    insts_.add(static_cast<double>(m.insts));
    cycles_.add(static_cast<double>(m.cycles));
    ipc_.add(m.ipc());
    loads_.add(static_cast<double>(m.loads));
    stores_.add(static_cast<double>(m.stores));
    branches_.add(static_cast<double>(m.branches));
    l1iAcc.add(static_cast<double>(m.mem.l1iAccesses));
    l1iMiss.add(static_cast<double>(m.mem.l1iMisses));
    l1dAcc.add(static_cast<double>(m.mem.l1dAccesses));
    l1dMiss.add(static_cast<double>(m.mem.l1dMisses));
    l2Acc.add(static_cast<double>(m.mem.l2Accesses));
    l2Miss.add(static_cast<double>(m.mem.l2Misses));
    centroid_ = insts_.mean();
}

void
ScaledCluster::decayHistory(std::uint64_t max_count)
{
    insts_.clampWeight(max_count);
    cycles_.clampWeight(max_count);
    ipc_.clampWeight(max_count);
    loads_.clampWeight(max_count);
    stores_.clampWeight(max_count);
    branches_.clampWeight(max_count);
    l1iAcc.clampWeight(max_count);
    l1iMiss.clampWeight(max_count);
    l1dAcc.clampWeight(max_count);
    l1dMiss.clampWeight(max_count);
    l2Acc.clampWeight(max_count);
    l2Miss.clampWeight(max_count);
}

bool
ScaledCluster::matches(InstCount insts) const
{
    auto x = static_cast<double>(insts);
    return x >= rangeLo() && x <= rangeHi();
}

double
ScaledCluster::distance(InstCount insts) const
{
    return std::fabs(static_cast<double>(insts) - centroid_);
}

bool
ScaledCluster::matchesMix(const Signature &sig) const
{
    auto dim_ok = [&](const RunningStats &stats, std::uint64_t v) {
        double mean = stats.mean();
        if (mean < 32.0)
            return true;  // too small to be discriminative
        auto x = static_cast<double>(v);
        return x >= mean * (1.0 - rangeFrac) &&
               x <= mean * (1.0 + rangeFrac);
    };
    return dim_ok(loads_, sig.loads) &&
           dim_ok(stores_, sig.stores) &&
           dim_ok(branches_, sig.branches);
}

namespace
{

std::uint64_t
roundStat(double x)
{
    return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

} // namespace

ServiceMetrics
ScaledCluster::predict() const
{
    ServiceMetrics m;
    m.insts = roundStat(insts_.mean());
    m.cycles = roundStat(cycles_.mean());
    m.mem.l1iAccesses = roundStat(l1iAcc.mean());
    m.mem.l1iMisses = roundStat(l1iMiss.mean());
    m.mem.l1dAccesses = roundStat(l1dAcc.mean());
    m.mem.l1dMisses = roundStat(l1dMiss.mean());
    m.mem.l2Accesses = roundStat(l2Acc.mean());
    m.mem.l2Misses = roundStat(l2Miss.mean());
    return m;
}

} // namespace osp
