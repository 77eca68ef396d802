#include "stratify.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "running_stats.hh"
#include "student_t.hh"
#include "util/random.hh"

namespace osp
{

const char *
allocationName(StratifyParams::Allocation a)
{
    switch (a) {
      case StratifyParams::Allocation::Proportional:
        return "proportional";
      case StratifyParams::Allocation::Neyman: return "neyman";
    }
    return "?";
}

namespace
{

/** Column-wise z-score normalization; constant columns become 0 so
 *  they cannot dominate (or contribute to) any distance. */
std::vector<std::vector<double>>
normalize(const std::vector<std::vector<double>> &features)
{
    const std::size_t n = features.size();
    const std::size_t dims = n ? features[0].size() : 0;
    std::vector<double> mean(dims, 0.0);
    std::vector<double> sd(dims, 0.0);
    for (std::size_t d = 0; d < dims; ++d) {
        RunningStats s;
        for (const auto &row : features)
            s.add(row[d]);
        mean[d] = s.mean();
        sd[d] = s.stddev();
    }
    // Normalized in place in a copy: gcc 12 flags the fill
    // constructor of a vector of vectors here with a false
    // -Wfree-nonheap-object at -O3.
    std::vector<std::vector<double>> out = features;
    for (auto &row : out)
        for (std::size_t d = 0; d < dims; ++d)
            row[d] = sd[d] > 0.0 ? (row[d] - mean[d]) / sd[d] : 0.0;
    return out;
}

double
dist2(const std::vector<double> &a, const std::vector<double> &b)
{
    double acc = 0.0;
    for (std::size_t d = 0; d < a.size(); ++d) {
        double diff = a[d] - b[d];
        acc += diff * diff;
    }
    return acc;
}

} // namespace

StrataAssignment
stratifyIntervals(const std::vector<std::vector<double>> &features,
                  const StratifyParams &params)
{
    StrataAssignment out;
    const std::size_t n = features.size();
    if (n == 0)
        return out;

    const std::uint32_t k = static_cast<std::uint32_t>(std::min<
        std::size_t>(std::max<std::uint32_t>(params.strata, 1), n));
    auto pts = normalize(features);

    // Seeded first pick, then deterministic farthest-point init
    // (ties -> lowest index). One RNG draw total, so the seed fixes
    // the whole clustering.
    Pcg32 rng(params.seed, 0x57A717FULL);
    std::vector<std::vector<double>> centroids;
    centroids.reserve(k);
    centroids.push_back(
        pts[static_cast<std::size_t>(rng.range64(n))]);
    std::vector<double> best(n,
                             std::numeric_limits<double>::max());
    while (centroids.size() < k) {
        for (std::size_t i = 0; i < n; ++i)
            best[i] =
                std::min(best[i], dist2(pts[i], centroids.back()));
        std::size_t far = 0;
        for (std::size_t i = 1; i < n; ++i)
            if (best[i] > best[far])
                far = i;
        centroids.push_back(pts[far]);
    }

    std::vector<std::uint32_t> assign(n, 0);
    std::vector<std::uint64_t> pop(k, 0);
    for (std::uint32_t iter = 0; iter < params.maxIters; ++iter) {
        bool changed = iter == 0;
        for (std::size_t i = 0; i < n; ++i) {
            std::uint32_t pick = 0;
            double d = dist2(pts[i], centroids[0]);
            for (std::uint32_t c = 1; c < k; ++c) {
                double dc = dist2(pts[i], centroids[c]);
                if (dc < d) {  // strict: ties keep the lowest index
                    d = dc;
                    pick = c;
                }
            }
            if (pick != assign[i]) {
                assign[i] = pick;
                changed = true;
            }
        }
        if (!changed)
            break;

        std::fill(pop.begin(), pop.end(), 0);
        for (std::size_t i = 0; i < n; ++i)
            ++pop[assign[i]];
        // An empty cluster steals the point farthest from its
        // current centroid (tie -> lowest index).
        for (std::uint32_t c = 0; c < k; ++c) {
            if (pop[c] != 0)
                continue;
            std::size_t far = n;
            double fd = -1.0;
            for (std::size_t i = 0; i < n; ++i) {
                if (pop[assign[i]] <= 1)
                    continue;
                double d = dist2(pts[i], centroids[assign[i]]);
                if (d > fd) {
                    fd = d;
                    far = i;
                }
            }
            if (far == n)
                continue;
            --pop[assign[far]];
            assign[far] = c;
            ++pop[c];
        }

        const std::size_t dims = pts[0].size();
        for (auto &c : centroids)
            std::fill(c.begin(), c.end(), 0.0);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t d = 0; d < dims; ++d)
                centroids[assign[i]][d] += pts[i][d];
        for (std::uint32_t c = 0; c < k; ++c)
            if (pop[c])
                for (std::size_t d = 0; d < dims; ++d)
                    centroids[c][d] /=
                        static_cast<double>(pop[c]);
    }

    std::fill(pop.begin(), pop.end(), 0);
    for (std::size_t i = 0; i < n; ++i)
        ++pop[assign[i]];

    out.numStrata = k;
    out.assignment = std::move(assign);
    out.population = std::move(pop);
    return out;
}

std::vector<std::uint64_t>
drawStratifiedSample(const StrataAssignment &strata,
                     const StratifyParams &params,
                     const std::vector<double> &costProxy)
{
    const std::size_t n = strata.assignment.size();
    const std::uint32_t k = strata.numStrata;
    std::vector<std::uint64_t> out;
    if (n == 0 || k == 0)
        return out;

    // Per-stratum member lists in ascending interval order.
    std::vector<std::vector<std::uint64_t>> members(k);
    for (std::size_t i = 0; i < n; ++i)
        members[strata.assignment[i]].push_back(i);

    auto floorFor = [&](std::uint64_t pop) {
        return std::min<std::uint64_t>(params.minPerStratum, pop);
    };

    const double rate = std::clamp(params.rate, 0.0, 1.0);
    std::vector<std::uint64_t> take(k, 0);
    bool neyman =
        params.allocation == StratifyParams::Allocation::Neyman &&
        costProxy.size() == n;
    if (neyman) {
        std::vector<double> weight(k, 0.0);
        double wsum = 0.0;
        for (std::uint32_t h = 0; h < k; ++h) {
            RunningStats s;
            for (std::uint64_t i : members[h])
                s.add(costProxy[static_cast<std::size_t>(i)]);
            weight[h] = static_cast<double>(members[h].size()) *
                        s.stddev();
            wsum += weight[h];
        }
        if (wsum <= 0.0) {
            neyman = false;  // degenerate proxy: fall back
        } else {
            double target = rate * static_cast<double>(n);
            // Floor shares, then hand out the remainder by largest
            // fractional part (tie -> lowest stratum index).
            std::vector<double> frac(k, 0.0);
            double assigned = 0.0;
            for (std::uint32_t h = 0; h < k; ++h) {
                double share = target * weight[h] / wsum;
                take[h] = static_cast<std::uint64_t>(share);
                frac[h] = share - static_cast<double>(take[h]);
                assigned += static_cast<double>(take[h]);
            }
            auto left = static_cast<std::uint64_t>(
                target - assigned + 0.5);
            for (std::uint64_t r = 0; r < left; ++r) {
                std::uint32_t pick = 0;
                for (std::uint32_t h = 1; h < k; ++h)
                    if (frac[h] > frac[pick])
                        pick = h;
                ++take[pick];
                frac[pick] = -1.0;
            }
        }
    }
    for (std::uint32_t h = 0; h < k; ++h) {
        const auto pop =
            static_cast<std::uint64_t>(members[h].size());
        if (!neyman)
            take[h] = static_cast<std::uint64_t>(
                rate * static_cast<double>(pop) + 0.5);
        take[h] = std::clamp<std::uint64_t>(take[h], floorFor(pop),
                                            pop);
    }

    // Partial Fisher-Yates per stratum, each on its own stream:
    // the draw for stratum h never depends on any other stratum.
    for (std::uint32_t h = 0; h < k; ++h) {
        auto &m = members[h];
        Pcg32 rng(params.seed, 0xD4A90000ULL + h);
        for (std::uint64_t j = 0; j < take[h]; ++j) {
            std::uint64_t pick =
                j + rng.range64(m.size() - static_cast<std::size_t>(j));
            std::swap(m[static_cast<std::size_t>(j)],
                      m[static_cast<std::size_t>(pick)]);
            out.push_back(m[static_cast<std::size_t>(j)]);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

StratifiedEstimate
estimateStratifiedTotal(const StrataAssignment &strata,
                        const std::vector<std::uint64_t> &sampleIndex,
                        const std::vector<double> &sampleValues)
{
    StratifiedEstimate est;
    const std::uint32_t k = strata.numStrata;
    est.strata.resize(k);
    for (std::uint32_t h = 0; h < k; ++h)
        est.strata[h].population = strata.population[h];

    std::vector<RunningStats> per(k);
    for (std::size_t j = 0;
         j < sampleIndex.size() && j < sampleValues.size(); ++j) {
        auto i = static_cast<std::size_t>(sampleIndex[j]);
        if (i >= strata.assignment.size())
            continue;
        per[strata.assignment[i]].add(sampleValues[j]);
    }

    for (std::uint32_t h = 0; h < k; ++h) {
        auto &s = est.strata[h];
        s.sampled = per[h].count();
        s.mean = per[h].mean();
        s.sampleVar = per[h].sampleVariance();
        const auto nh = static_cast<double>(s.sampled);
        const auto Nh = static_cast<double>(s.population);
        if (s.sampled == 0)
            continue;
        est.total += Nh * s.mean;
        if (s.sampled >= 2 && s.sampled < s.population) {
            est.variance +=
                Nh * Nh * (1.0 - nh / Nh) * s.sampleVar / nh;
        }
        est.df += s.sampled - 1;
    }
    if (est.df >= 1) {
        est.hasCi = true;
        est.ci95Half = studentTCritical(est.df, 0.025) *
                       std::sqrt(std::max(est.variance, 0.0));
    }
    return est;
}

} // namespace osp
