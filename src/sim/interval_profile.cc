#include "interval_profile.hh"

#include "util/logging.hh"

namespace osp
{

IntervalProfiler::IntervalProfiler(InstCount interval_len)
    : intervalLen_(interval_len)
{
    if (intervalLen_ == 0)
        osp_fatal("IntervalProfiler requires interval_len > 0");
}

void
IntervalProfiler::reset()
{
    intervals_.clear();
    fullIntervals_ = 0;
}

IntervalFeatures &
IntervalProfiler::at(std::uint64_t interval)
{
    if (interval >= intervals_.size())
        intervals_.resize(static_cast<std::size_t>(interval) + 1);
    return intervals_[static_cast<std::size_t>(interval)];
}

void
IntervalProfiler::noteOps(std::uint64_t interval, const MicroOp *ops,
                          std::size_t n)
{
    IntervalFeatures &f = at(interval);
    f.ops += n;
    // Indexed per-class counts, not a switch: the class is a random
    // draw, so a branch on it would mispredict.
    std::uint64_t mix[numOpClasses] = {};
    std::uint64_t taken = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ++mix[static_cast<int>(ops[i].cls)];
        taken += ops[i].cls == OpClass::Branch && ops[i].taken;
    }
    f.fp += mix[static_cast<int>(OpClass::FpAlu)];
    f.loads += mix[static_cast<int>(OpClass::Load)];
    f.stores += mix[static_cast<int>(OpClass::Store)];
    f.branches += mix[static_cast<int>(OpClass::Branch)];
    f.taken += taken;
}

void
IntervalProfiler::noteService(std::uint64_t interval,
                              ServiceType type, InstCount insts)
{
    IntervalFeatures &f = at(interval);
    ++f.svcInvocations;
    f.svcInsts += insts;
    ++f.svcCounts[static_cast<std::size_t>(type)];
}

void
IntervalProfiler::finish(InstCount total_app_insts)
{
    fullIntervals_ = total_app_insts / intervalLen_;
    // A trailing partial interval may have tallies; keep them out
    // of the feature matrix (the tail is measured, not sampled).
    if (intervals_.size() <
        static_cast<std::size_t>(fullIntervals_))
        intervals_.resize(
            static_cast<std::size_t>(fullIntervals_));
}

std::vector<std::vector<double>>
IntervalProfiler::featureMatrix() const
{
    const auto n = static_cast<std::size_t>(fullIntervals_);
    const auto len = static_cast<double>(intervalLen_);
    std::vector<std::vector<double>> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const IntervalFeatures &f = intervals_[i];
        std::vector<double> row;
        row.reserve(7 + f.svcCounts.size());
        row.push_back(static_cast<double>(f.loads) / len);
        row.push_back(static_cast<double>(f.stores) / len);
        row.push_back(static_cast<double>(f.branches) / len);
        row.push_back(static_cast<double>(f.fp) / len);
        row.push_back(f.branches
                          ? static_cast<double>(f.taken) /
                                static_cast<double>(f.branches)
                          : 0.0);
        row.push_back(static_cast<double>(f.svcInsts) / len);
        row.push_back(static_cast<double>(f.svcInvocations));
        const double inv = f.svcInvocations
                               ? 1.0 / static_cast<double>(
                                           f.svcInvocations)
                               : 0.0;
        for (std::uint32_t c : f.svcCounts)
            row.push_back(static_cast<double>(c) * inv);
        out.push_back(std::move(row));
    }
    return out;
}

std::vector<double>
IntervalProfiler::costProxy() const
{
    const auto n = static_cast<std::size_t>(fullIntervals_);
    const auto len = static_cast<double>(intervalLen_);
    std::vector<double> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const IntervalFeatures &f = intervals_[i];
        out.push_back(
            static_cast<double>(f.loads + f.stores) / len);
    }
    return out;
}

} // namespace osp
