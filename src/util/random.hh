/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component of the simulator owns a Pcg32 seeded
 * from a (seed, stream) pair, so whole experiments replay exactly
 * from a single seed and components do not perturb each other's
 * sequences when one of them draws more numbers.
 *
 * PCG32 (O'Neill, 2014): 64-bit LCG state with an output permutation;
 * small, fast, and statistically far better than rand().
 */

#ifndef OSP_UTIL_RANDOM_HH
#define OSP_UTIL_RANDOM_HH

#include <cmath>
#include <cstdint>

namespace osp
{

/**
 * A PCG-XSH-RR 32-bit pseudo-random generator with an explicit
 * stream id. Distinct stream ids produce independent sequences even
 * under the same seed.
 */
class Pcg32
{
  public:
    /**
     * Precomputed constants for repeated range(bound) draws with a
     * fixed bound (makeRange/rangeWith). Hot paths that alternate
     * between several fixed bounds keep one of these per bound so no
     * draw ever recomputes the rejection threshold or the Lemire
     * magic (a division each).
     */
    struct RangeDraw
    {
        std::uint32_t bound = 0;
        std::uint32_t threshold = 0;
        std::uint64_t magic = 0;
    };

    /**
     * Exact-replay lookup table for geometric(p) with a fixed p.
     * boundary[k-1] is the smallest raw draw r for which the
     * original expression 1 + (uint32)(log(r/2^32) / log(1-p))
     * evaluates to k, found at build time by evaluating that same
     * expression (same process, same libm) around the analytic
     * boundary — so a table hit is the original result by
     * construction. Draws below boundary[entries-1] (the large-d
     * tail) and tables that failed verification fall back to the
     * original formula. Either way: one draw, same value.
     */
    struct GeomTable
    {
        static constexpr std::uint32_t kMaxEntries = 32;
        static constexpr std::uint32_t kBuckets = 256;
        double p = -1.0;
        double logOneMinusP = 1.0;
        std::uint32_t entries = 0;  //!< 0 when the table is unusable
        std::uint32_t boundary[kMaxEntries] = {};
        /**
         * Direct index on the draw's top 8 bits: low byte is the
         * result d when the whole bucket maps to one value, or d
         * with bits 32.. holding the one boundary inside the bucket
         * (result d + (r < boundary)). 0 = bucket not covered, use
         * the formula. Turns the common lookup into one load and
         * one compare instead of a data-dependent scan.
         */
        std::uint64_t bucket[kBuckets] = {};
    };

    /** Construct from a seed and a stream selector. */
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                   std::uint64_t stream = 0xda3e39cb94b95bdbULL)
        : inc((stream << 1u) | 1u)
    {
        next();
        state += seed;
        next();
    }

    /**
     * Re-initialize with a new (seed, stream) pair: afterwards the
     * generator equals Pcg32(seed, stream), including the range()
     * memo.
     */
    void
    reseed(std::uint64_t seed, std::uint64_t stream = 0)
    {
        *this = Pcg32(seed, stream);
    }

    /** Next raw 32-bit value. */
    std::uint32_t
    next()
    {
        std::uint64_t old = state;
        state = old * 6364136223846793005ULL + inc;
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next64()
    {
        return (static_cast<std::uint64_t>(next()) << 32) | next();
    }

    /**
     * Uniform integer in [0, bound). Uses rejection sampling so the
     * distribution is exactly uniform (no modulo bias): a draw r is
     * accepted iff r >= 2^32 mod bound, and yields r % bound.
     *
     * Callers mostly reuse one bound (address-stream spans), so a
     * bound requested twice in a row is memoized as a RangeDraw and
     * served by rangeWith() with no division at all. A bound that
     * differs from the memo takes rangeFresh() instead, which costs
     * one 32-bit modulo per draw instead of the memo's modulo plus
     * 64-bit division. Both paths make the same draws and return
     * the same values.
     */
    std::uint32_t
    range(std::uint32_t bound)
    {
        if (bound <= 1)
            return 0;
        if (bound != rangeMemo.bound) {
            if (bound != rangeLast) {
                rangeLast = bound;
                return rangeFresh(bound);
            }
            rangeMemo = makeRange(bound);
        }
        return rangeWith(rangeMemo);
    }

    /** Precompute range(bound) constants for rangeWith(). */
    static RangeDraw
    makeRange(std::uint32_t bound)
    {
        RangeDraw d;
        d.bound = bound;
        if (bound > 1) {
            d.threshold = (-bound) % bound;
            d.magic = ~std::uint64_t(0) / bound + 1;
        }
        return d;
    }

    /**
     * range(d.bound) using precomputed constants: same draws, same
     * rejection, same value — no divisions. The remainder uses
     * Lemire's direct computation, exact for all 32-bit operands:
     * n % d == mulhi64(M * n, d) with M = 2^64/d + 1 (Lemire, Kaser
     * & Kurz 2019).
     */
    std::uint32_t
    rangeWith(const RangeDraw &d)
    {
        if (d.bound <= 1)
            return 0;
        for (;;) {
            std::uint32_t r = next();
            if (r >= d.threshold) {
                std::uint64_t low = d.magic * r;
                return static_cast<std::uint32_t>(
                    (static_cast<unsigned __int128>(low) *
                     d.bound) >>
                    64);
            }
        }
    }

    /**
     * Uniform integer in [0, bound) for 64-bit bounds, rejection
     * sampled like range(). bound 0 means the full 2^64 span.
     */
    std::uint64_t
    range64(std::uint64_t bound)
    {
        if (bound == 0)
            return next64();
        if (bound == 1)
            return 0;
        std::uint64_t threshold = (-bound) % bound;
        for (;;) {
            std::uint64_t r = next64();
            if (r >= threshold)
                return r % bound;
        }
    }

    /**
     * Uniform integer in [lo, hi] inclusive. Spans that fit in 32
     * bits draw one 32-bit value (preserving the historical stream
     * for every existing caller); wider spans — which previously
     * truncated to 32 bits, a full-span request wrapping to a span
     * of 0 and always returning lo — use 64-bit rejection sampling.
     */
    std::int64_t
    rangeInclusive(std::int64_t lo, std::int64_t hi)
    {
        // Unsigned arithmetic: hi - lo is well defined even for
        // (INT64_MIN, INT64_MAX), where the +1 wraps span to 0 —
        // range64's encoding of the full 2^64 span.
        std::uint64_t span = static_cast<std::uint64_t>(hi) -
                             static_cast<std::uint64_t>(lo) + 1;
        std::uint64_t off;
        if (span != 0 && span <= 0xFFFFFFFFULL)
            off = range(static_cast<std::uint32_t>(span));
        else
            off = range64(span);
        return static_cast<std::int64_t>(
            static_cast<std::uint64_t>(lo) + off);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return next() * (1.0 / 4294967296.0);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Bernoulli trial with success probability p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /**
     * Integer threshold T(p) such that chance(p) == next() < T(p),
     * *exactly*: uniform() is next()/2^32 with no rounding (a 32-bit
     * integer scaled by a power of two), so r/2^32 < p iff
     * r < ceil(p * 2^32) for every integer r. Hot paths with a fixed
     * p precompute this once and use chanceRaw(), replacing an
     * int->double conversion, multiply and double compare with one
     * integer compare per trial — same draw, same outcome, faster.
     */
    static std::uint64_t
    rawThreshold(double p)
    {
        if (p <= 0.0)
            return 0;
        if (p >= 1.0)
            return std::uint64_t(1) << 32;
        return static_cast<std::uint64_t>(
            std::ceil(p * 4294967296.0));
    }

    /** chance(p) with a precomputed rawThreshold(p). Consumes
     *  exactly one draw, like chance(). */
    bool
    chanceRaw(std::uint64_t threshold)
    {
        return next() < threshold;
    }

    /**
     * Geometrically distributed trial count (>= 1) with success
     * probability p: the reference formula that geometricWith(),
     * through which the simulator draws, reproduces bit for bit.
     */
    std::uint32_t
    geometric(double p)
    {
        if (p >= 1.0)
            return 1;
        if (p <= 0.0)
            return 1;
        double u = uniform();
        if (u <= 0.0)
            u = 1e-12;
        return 1 + static_cast<std::uint32_t>(std::log(u) /
                                              std::log(1.0 - p));
    }

    /**
     * Build a GeomTable for geometric(p). The evaluator below is the
     * geometric() expression verbatim; each boundary is located by
     * scanning that evaluator around the analytic estimate
     * (1-p)^k * 2^32, so table lookups reproduce geometric() exactly.
     * Rounding in std::log can only move a boundary by a few raw
     * units (the true ratio moves >= 1/(u*|log(1-p)|*2^32) per unit
     * of r, orders of magnitude more than a sub-ulp log error), so a
     * window around the estimate always brackets it; a window that
     * fails to show one clean transition marks the table unusable
     * and every draw falls back to the formula.
     */
    static GeomTable
    makeGeomTable(double p)
    {
        GeomTable t;
        t.p = p;
        if (p <= 0.0 || p >= 1.0)
            return t;
        t.logOneMinusP = std::log(1.0 - p);
        // Tiny p spreads the distribution far past the table, so a
        // scan would nearly always fall through; not worth building.
        if (p < 0.01)
            return t;
        auto dOf = [&](std::uint32_t r) {
            double u = r * (1.0 / 4294967296.0);
            if (u <= 0.0)
                u = 1e-12;
            return 1 + static_cast<std::uint32_t>(
                           std::log(u) / t.logOneMinusP);
        };
        std::uint64_t prev = std::uint64_t(1) << 32;
        for (std::uint32_t k = 1; k <= GeomTable::kMaxEntries;
             ++k) {
            double est =
                std::pow(1.0 - p, static_cast<double>(k)) *
                4294967296.0;
            if (est < 256.0)
                break;  // boundaries crowd; leave the tail to log()
            std::uint64_t g = static_cast<std::uint64_t>(est);
            constexpr std::uint64_t kWin = 128;
            std::uint64_t lo = g > kWin ? g - kWin : 1;
            std::uint64_t hi = g + kWin;
            if (hi >= prev)
                hi = prev - 1;
            // Anything unexpected in the window — a second boundary,
            // a wiggle, no transition — just stops extending: the
            // entries verified so far stay exact, and draws below
            // them take the formula path.
            if (dOf(static_cast<std::uint32_t>(lo)) != k + 1 ||
                dOf(static_cast<std::uint32_t>(hi)) != k)
                break;
            std::uint64_t s = 0;
            bool clean = true;
            for (std::uint64_t r = lo + 1; r <= hi && clean; ++r) {
                std::uint32_t d =
                    dOf(static_cast<std::uint32_t>(r));
                if (!s) {
                    if (d == k)
                        s = r;
                    else if (d != k + 1)
                        clean = false;
                } else if (d != k) {
                    clean = false;
                }
            }
            if (!clean || !s)
                break;
            t.boundary[k - 1] = static_cast<std::uint32_t>(s);
            t.entries = k;
            prev = s;
        }

        // Index the verified intervals by the draw's top byte.
        auto dFromBoundaries =
            [&](std::uint64_t r) -> std::uint32_t {
            for (std::uint32_t k = 0; k < t.entries; ++k)
                if (r >= t.boundary[k])
                    return k + 1;
            return 0;  // below coverage
        };
        for (std::uint32_t i = 0; i < GeomTable::kBuckets; ++i) {
            std::uint64_t lo = std::uint64_t(i) << 24;
            std::uint64_t hi = (std::uint64_t(i + 1) << 24) - 1;
            std::uint32_t dlo = dFromBoundaries(lo);
            std::uint32_t dhi = dFromBoundaries(hi);
            if (dlo == 0 || dhi == 0)
                continue;  // (partly) uncovered: formula
            if (dlo == dhi)
                t.bucket[i] = dhi;
            else if (dlo == dhi + 1)
                t.bucket[i] =
                    (static_cast<std::uint64_t>(
                         t.boundary[dhi - 1])
                     << 32) |
                    dhi;
            // >1 boundary inside: leave 0, formula
        }
        return t;
    }

    /**
     * geometric(t.p) via a GeomTable: identical guard order, one
     * draw, and the original formula whenever the table cannot
     * answer. Bit-identical to geometric(t.p) by construction.
     */
    std::uint32_t
    geometricWith(const GeomTable &t)
    {
        if (t.p >= 1.0)
            return 1;
        if (t.p <= 0.0)
            return 1;
        std::uint32_t r = next();
        std::uint64_t e = t.bucket[r >> 24];
        if (e) {
            return static_cast<std::uint32_t>(e & 0xff) +
                   (r < static_cast<std::uint32_t>(e >> 32));
        }
        double u = r * (1.0 / 4294967296.0);
        if (u <= 0.0)
            u = 1e-12;
        return 1 + static_cast<std::uint32_t>(std::log(u) /
                                              t.logOneMinusP);
    }

  private:
    /**
     * range(bound) for bound > 1 without precomputed constants. The
     * threshold 2^32 mod bound is below bound, so a draw r >= bound
     * is accepted outright and needs only r % bound; a draw r < bound
     * is its own remainder and needs only the threshold. Either way
     * one 32-bit modulo per draw.
     */
    std::uint32_t
    rangeFresh(std::uint32_t bound)
    {
        for (;;) {
            std::uint32_t r = next();
            if (r >= bound)
                return r % bound;
            if (r >= (-bound) % bound)
                return r;
        }
    }

    std::uint64_t state = 0;
    std::uint64_t inc = 0;
    RangeDraw rangeMemo;         //!< memoized range() bound
    std::uint32_t rangeLast = 0;  //!< bound of the previous range()
};

} // namespace osp

#endif // OSP_UTIL_RANDOM_HH
