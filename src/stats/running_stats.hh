/**
 * @file
 * Online (single-pass) summary statistics.
 *
 * Welford's algorithm keeps the running mean and sum of squared
 * deviations, so mean/stddev/CV are available at any time without
 * storing samples and without the catastrophic cancellation of the
 * naive sum-of-squares formula. The paper relies on these statistics
 * twice: per-cluster performance records in the PLT (Sec. 4.3) and
 * the coefficient-of-variation cluster-quality metric (Fig. 6).
 */

#ifndef OSP_STATS_RUNNING_STATS_HH
#define OSP_STATS_RUNNING_STATS_HH

#include <cmath>
#include <cstdint>
#include <limits>

namespace osp
{

/**
 * Single-pass mean / variance / min / max accumulator (Welford).
 */
class RunningStats
{
  public:
    /** Add one sample. */
    void
    add(double x)
    {
        count_ += 1;
        double delta = x - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2 += delta * (x - mean_);
        if (x < min_)
            min_ = x;
        if (x > max_)
            max_ = x;
    }

    /** Merge another accumulator into this one (parallel Welford). */
    void
    merge(const RunningStats &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0) {
            *this = other;
            return;
        }
        std::uint64_t n = count_ + other.count_;
        double delta = other.mean_ - mean_;
        double na = static_cast<double>(count_);
        double nb = static_cast<double>(other.count_);
        m2 += other.m2 + delta * delta * na * nb / (na + nb);
        mean_ = (na * mean_ + nb * other.mean_) / (na + nb);
        count_ = n;
        if (other.min_ < min_)
            min_ = other.min_;
        if (other.max_ > max_)
            max_ = other.max_;
    }

    /**
     * Reduce the effective sample weight to at most @p max_count,
     * preserving the mean and variance. Subsequent samples then
     * move the mean as if only max_count members had been seen —
     * the re-weighting a drift reset needs: external evidence says
     * the distribution shifted, so thousands of stale samples must
     * not be allowed to pin the mean against a fresh window.
     */
    void
    clampWeight(std::uint64_t max_count)
    {
        if (count_ <= max_count)
            return;
        double scale = static_cast<double>(max_count) /
                       static_cast<double>(count_);
        m2 *= scale;
        count_ = max_count;
    }

    /**
     * Reconstruct an accumulator from saved moments (PLT
     * serialization). m2 is the sum of squared deviations
     * (population variance times count).
     */
    static RunningStats
    fromMoments(std::uint64_t count, double mean, double m2,
                double min_v, double max_v)
    {
        RunningStats s;
        if (count == 0)
            return s;
        s.count_ = count;
        s.mean_ = mean;
        s.m2 = m2;
        s.min_ = min_v;
        s.max_ = max_v;
        return s;
    }

    /** Number of samples seen. */
    std::uint64_t count() const { return count_; }

    /** Arithmetic mean (0 with no samples). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population variance (divides by n). */
    double
    variance() const
    {
        return count_ ? m2 / static_cast<double>(count_) : 0.0;
    }

    /** Sample variance (divides by n-1; 0 for fewer than 2 samples). */
    double
    sampleVariance() const
    {
        return count_ > 1 ? m2 / static_cast<double>(count_ - 1) : 0.0;
    }

    /** Population standard deviation. */
    double stddev() const { return std::sqrt(variance()); }

    /** Sample standard deviation. */
    double sampleStddev() const { return std::sqrt(sampleVariance()); }

    /**
     * Coefficient of variation: stddev / mean, the cluster-uniformity
     * metric of Fig. 6 (0 when the mean is 0).
     */
    double
    cv() const
    {
        double m = mean();
        return m != 0.0 ? stddev() / std::fabs(m) : 0.0;
    }

    /** Minimum sample (+inf with no samples). */
    double
    min() const
    {
        return count_ ? min_ : std::numeric_limits<double>::infinity();
    }

    /** Maximum sample (-inf with no samples). */
    double
    max() const
    {
        return count_ ? max_
                      : -std::numeric_limits<double>::infinity();
    }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2 = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace osp

#endif // OSP_STATS_RUNNING_STATS_HH
