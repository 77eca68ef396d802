/**
 * @file
 * A set-associative cache model with owner-tagged lines.
 *
 * Matches the memory system of the paper's Sec. 5.1: write-back,
 * write-allocate, LRU replacement, 64-byte lines. Every resident line
 * carries the Owner (application or OS) that brought it in, which
 * provides (a) exact per-owner hit/miss statistics — the separation
 * of OS from application performance the technique requires — and
 * (b) the substrate for the cache-pollution model of Sec. 4.5, which
 * evicts application-owned victims from uniformly random sets when an
 * OS service is predicted instead of simulated.
 */

#ifndef OSP_MEM_CACHE_HH
#define OSP_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/random.hh"
#include "util/types.hh"

namespace osp
{

/** Static geometry of one cache (replacement is always LRU). */
struct CacheParams
{
    std::string name = "cache";     //!< for error messages / reports
    std::uint64_t sizeBytes = 0;    //!< total capacity
    std::uint32_t assoc = 1;        //!< ways per set
    std::uint32_t lineBytes = 64;   //!< line size (power of two)
};

/** Per-owner access/miss/eviction counters of one cache. */
struct CacheStats
{
    std::uint64_t accesses[numOwners] = {0, 0};
    std::uint64_t misses[numOwners] = {0, 0};
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    /** App-owned lines evicted by OS fills (natural pollution). */
    std::uint64_t crossEvictions = 0;
    /** Valid lines displaced or invalidated by the pollution
     *  injector (predicted OS pollution, Sec. 4.5). Fills into
     *  invalid slots are injectedFills, not evictions. */
    std::uint64_t injectedEvictions = 0;
    /** Lines made resident by the pollution injector (synthetic
     *  installs and footprint installs). */
    std::uint64_t injectedFills = 0;

    std::uint64_t
    totalAccesses() const
    {
        return accesses[0] + accesses[1];
    }

    std::uint64_t totalMisses() const { return misses[0] + misses[1]; }

    double
    missRate() const
    {
        std::uint64_t a = totalAccesses();
        return a ? static_cast<double>(totalMisses()) /
                       static_cast<double>(a)
                 : 0.0;
    }

    double
    missRateFor(Owner owner) const
    {
        auto i = static_cast<int>(owner);
        return accesses[i] ? static_cast<double>(misses[i]) /
                                 static_cast<double>(accesses[i])
                           : 0.0;
    }
};

/**
 * One level of cache. Latencies live in MemoryHierarchy; the Cache
 * itself only tracks residency, replacement and statistics.
 */
class Cache
{
  public:
    /** Outcome of one access. */
    struct AccessResult
    {
        bool hit = false;
        /** A dirty victim was evicted (writeback traffic). */
        bool writeback = false;
        /** An app-owned line was displaced by an OS fill. */
        bool crossEviction = false;
    };

    /** @param params geometry
     *  @param seed   seed for the pollution model's random sets */
    explicit Cache(const CacheParams &params,
                   std::uint64_t seed = 12345);

    /**
     * Access one address. On a miss the line is allocated
     * (write-allocate) and a victim evicted if the set is full.
     *
     * The MRU-way hit — by far the most common outcome on real
     * access streams — is resolved here in the header so callers
     * inline it down to a handful of instructions; everything else
     * (way scan, fill, eviction) goes through accessSlow().
     *
     * @param addr     byte address of the access
     * @param is_write true for stores (marks the line dirty)
     * @param owner    who performs the access
     */
    AccessResult
    access(Addr addr, bool is_write, Owner owner)
    {
        std::uint32_t set = setIndex(addr);
        Addr tag = tagOf(addr);
        std::size_t base =
            static_cast<std::size_t>(set) * params_.assoc;

        stats_.accesses[static_cast<int>(owner)] += 1;
        ++lruClock;

        // Fast path: the way that hit (or filled) last time in this
        // set. One compare against the compact tag array; invalid
        // ways hold a never-matching sentinel so no valid bit is
        // consulted.
        std::uint32_t mru = mruWay_[set];
        if (tags_[base + mru] == tag) {
            stamps_[base + mru] = lruClock;
            if (is_write)
                lines[base + mru].dirty = true;
            return AccessResult{true, false, false};
        }
        // The slow path returns its three outcomes packed in one
        // register; rebuilding the struct here keeps it out of
        // memory (a stack round trip of three bools would reload
        // them as one wide word and stall store forwarding).
        unsigned bits = accessSlow(set, tag, base, is_write, owner);
        return AccessResult{(bits & kHitBit) != 0,
                            (bits & kWritebackBit) != 0,
                            (bits & kCrossEvictionBit) != 0};
    }

    /** True if the address is currently resident (no state change,
     *  no statistics). */
    bool probe(Addr addr) const;

    /** How injected pollution treats the victim slot. */
    enum class PollutionMode
    {
        /** Invalidate an application-owned victim; a set with an
         *  invalid line yields no victim (the paper's Sec. 4.5
         *  formulation). */
        InvalidateApp,
        /** Invalidate the LRU victim regardless of owner. */
        InvalidateAny,
        /** Replace the victim (or an invalid slot) with a synthetic
         *  never-matching OS-owned line, modelling the skipped
         *  service actually fetching its footprint. Keeps sets full,
         *  so repeated pollution cannot saturate into a no-op — see
         *  DESIGN.md and the abl4 bench. */
        Install,
    };

    /**
     * Inject @p count predicted-miss displacements into uniformly
     * random sets (Sec. 4.5). For the invalidating modes the count
     * is clamped to the lines actually eligible (valid lines, or
     * valid application-owned lines for InvalidateApp): asking for
     * more evictions than the cache holds cannot evict more than it
     * holds, and the excess draws would only burn the RNG. Stats
     * record what really happened — evictions only when a valid
     * line was displaced, fills when a slot was populated.
     *
     * @return number of slots actually affected.
     */
    std::uint64_t pollute(std::uint64_t count, PollutionMode mode);

    /**
     * Silently make @p addr resident on behalf of a skipped OS
     * service (footprint-faithful pollution): a hit refreshes LRU, a
     * miss fills the victim slot. No access/miss statistics are
     * touched; evictions count as injected.
     *
     * @return true if the line was filled (was not resident).
     */
    bool install(Addr addr, Owner owner);

    /**
     * install() the first @p count entries of @p sample cycled
     * (sample[k % sample.size()]), in order; an empty sample
     * installs nothing. Keeps the per-line loop next to the inlined
     * tag scan — one call per footprint, not per line.
     *
     * @return number of lines filled (install() returned true).
     */
    std::uint64_t installCycled(std::span<const Addr> sample,
                                std::uint64_t count, Owner owner);

    /**
     * Invalidate everything (cold-start). Statistics survive. Also
     * rewinds the LRU clock, the synthetic-tag allocator and the
     * MRU-way memos: with no valid lines left, none of that state
     * is observable, and resetting it makes a flushed cache replay
     * exactly like a freshly constructed one (the pollution RNG is
     * the one deliberate exception: flushing does not rewind its
     * draws).
     */
    void flush();

    /** Number of currently valid lines owned by @p owner (O(1):
     *  tracked incrementally). */
    std::uint64_t
    residentLines(Owner owner) const
    {
        return validLines_[static_cast<int>(owner)];
    }

    /** Number of currently valid lines (both owners). */
    std::uint64_t
    residentLines() const
    {
        return validLines_[0] + validLines_[1];
    }

    /** Accumulated statistics. */
    const CacheStats &stats() const { return stats_; }

    /** Reset statistics (contents survive). */
    void resetStats() { stats_ = CacheStats(); }

    /** Geometry accessors. */
    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t assoc() const { return params_.assoc; }
    std::uint32_t lineBytes() const { return params_.lineBytes; }
    const CacheParams &params() const { return params_; }

  private:
    /**
     * Per-line metadata. The tag and the LRU stamp live in the
     * separate compact tags_ and stamps_ arrays (8 bytes per way
     * each, sequential in memory), so the hit path — by far the
     * hottest loop in the simulator — and a victim scan each touch
     * one dense run per set instead of striding through this
     * struct.
     */
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Owner owner = Owner::App;
    };

    /**
     * Sentinel stored in tags_ for invalid ways. Real tags are
     * addr >> lineShift with lineShift >= 1 (the constructor
     * requires lineBytes >= 2), and synthetic pollution tags start
     * at 1 << 52, so neither can ever equal ~0.
     */
    static constexpr Addr kInvalidTag = ~static_cast<Addr>(0);

    std::uint32_t
    setIndex(Addr addr) const
    {
        return static_cast<std::uint32_t>((addr >> lineShift) &
                                          (numSets_ - 1));
    }

    Addr tagOf(Addr addr) const { return addr >> lineShift; }

    /** "No such way" marker for the way-scan helpers. */
    static constexpr std::uint32_t kNoWay = ~std::uint32_t(0);

    /**
     * One scan of the set at flat index @p base: returns the way
     * holding @p tag (kNoWay on a miss). On a miss @p free_way is
     * the set's first invalid way (kNoWay if none), which is all a
     * miss needs to pick its victim without rescanning.
     */
    std::uint32_t findWay(std::size_t base, Addr tag,
                          std::uint32_t &free_way) const;

    /** Pick the victim way of a miss per the policy: @p free_way
     *  (from findWay) when the set has one, else random or LRU. */
    std::uint32_t victimWay(std::size_t base, std::uint32_t free_way);

    /** The least recently used way of the set at flat index
     *  @p base (lowest way on ties), among application-owned ways
     *  only if @p app_only; kNoWay when none is eligible. */
    std::uint32_t lruWay(std::size_t base, bool app_only) const;

    /** accessSlow() result bits (the AccessResult fields). */
    static constexpr unsigned kHitBit = 1;
    static constexpr unsigned kWritebackBit = 2;
    static constexpr unsigned kCrossEvictionBit = 4;

    /** Way scan, fill and eviction for a non-MRU access; the stats
     *  and LRU-clock bumps already happened in access(). Returns
     *  the outcome as k*Bit flags. */
    unsigned accessSlow(std::uint32_t set, Addr tag, std::size_t base,
                        bool is_write, Owner owner);

    /**
     * Transition the residency of the line at flat index @p idx,
     * keeping validLines_ exact and the tag array in sync (an
     * invalidated way gets the never-matching sentinel; callers of
     * a fill store the real tag afterwards).
     */
    void
    retag(std::size_t idx, bool valid, Owner owner)
    {
        Line &line = lines[idx];
        if (line.valid)
            --validLines_[static_cast<int>(line.owner)];
        line.valid = valid;
        line.owner = owner;
        if (valid)
            ++validLines_[static_cast<int>(owner)];
        else
            tags_[idx] = kInvalidTag;
    }

    CacheParams params_;
    std::uint32_t numSets_ = 0;
    std::uint32_t lineShift = 0;
    std::uint64_t lruClock = 0;
    std::uint64_t syntheticTag = 0;
    std::uint64_t validLines_[numOwners] = {0, 0};
    std::vector<Line> lines;  //!< numSets * assoc, set-major
    /** Compact tag-or-sentinel per way, same indexing as lines. */
    std::vector<Addr> tags_;
    /** LRU clock value of each way's last touch, same indexing. */
    std::vector<std::uint64_t> stamps_;
    /**
     * Per-set memo of the most recently hitting/filled way: the
     * common "hit the same line again" case is a single compare
     * against tags_ with no scan. Purely an access-order hint —
     * never consulted for replacement, so victimWay semantics are
     * untouched.
     */
    std::vector<std::uint32_t> mruWay_;
    CacheStats stats_;
    Pcg32 rng;
};

} // namespace osp

#endif // OSP_MEM_CACHE_HH
