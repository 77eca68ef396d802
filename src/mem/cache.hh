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

/** Static geometry of one cache (replacement is always LRU; at
 *  most 16 ways, the LRU age matrix's limit). */
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

        // Fast path: the way used last in this set. One compare
        // against the compact tag array; invalid ways hold a
        // never-matching sentinel so no valid bit is consulted. It
        // is already the set's most recent way, so its hit changes
        // no recency state.
        std::uint32_t mru = mruWay_[set];
        if (tags_[base + mru] == tag) {
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
        /** Replace the victim (or an invalid slot) with a synthetic
         *  never-matching OS-owned line, modelling the skipped
         *  service actually fetching its footprint. Keeps sets full,
         *  so repeated pollution cannot saturate into a no-op — see
         *  DESIGN.md and the abl4 bench. */
        Install,
    };

    /**
     * Inject @p count predicted-miss displacements into uniformly
     * random sets (Sec. 4.5). For InvalidateApp the count is
     * clamped to the valid application-owned lines: asking for
     * more evictions than the cache holds cannot evict more than it
     * holds, and the excess draws would only burn the RNG. Stats
     * record what really happened — evictions only when a valid
     * line was displaced, fills when a slot was populated.
     *
     * @return number of slots actually affected.
     */
    std::uint64_t pollute(std::uint64_t count, PollutionMode mode);

    /**
     * Silently make the first @p count entries of @p sample cycled
     * (sample[k % sample.size()]) resident, in order, on behalf of a
     * skipped OS service (footprint-faithful pollution); an empty
     * sample installs nothing. Per line: a hit refreshes LRU, a miss
     * fills the victim slot; no access/miss statistics are touched,
     * and evictions count as injected. One loop per footprint,
     * specialised to the associativity (2, 4, 8 and 16 ways, and a
     * generic loop), with the fill, eviction and residency counts in
     * locals written back once per call.
     *
     * @return number of lines filled (were not resident).
     */
    std::uint64_t installCycled(std::span<const Addr> sample,
                                std::uint64_t count, Owner owner);

    /** Number of currently valid lines owned by @p owner (O(1):
     *  tracked incrementally). */
    std::uint64_t
    residentLines(Owner owner) const
    {
        return validLines_[static_cast<int>(owner)];
    }

    /** Accumulated statistics. */
    const CacheStats &stats() const { return stats_; }

  private:
    /**
     * Per-line metadata. The tag lives in the separate compact tags_
     * array (8 bytes per way, sequential in memory), so the hit path
     * — by far the hottest loop in the simulator — touches one dense
     * run per set instead of striding through this struct; recency
     * lives in the per-set age matrices (ages_).
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
     * One scan of the @p assoc tags at @p t (@p Ways of them unless
     * 0): the lowest way holding @p tag, and in @p free_way the
     * lowest invalid way, which is all a miss needs to pick its
     * victim without rescanning (each kNoWay if none).
     */
    template <std::uint32_t Ways>
    static std::uint32_t findWay(const Addr *t, std::uint32_t assoc,
                                 Addr tag, std::uint32_t &free_way);

    template <unsigned RowBits> struct AgeMatrix;  //!< LRU order

    /** Make @p way the most recently used way of @p set. */
    void touch(std::uint32_t set, std::uint32_t way);

    /** The least recently used of the ways of the full set @p set
     *  that mask @p ways names (bit w: way w); kNoWay if none. */
    std::uint32_t lruWay(std::uint32_t set, std::uint64_t ways) const;

    /** installCycled()'s loop: @p Ways ways (0: any), RowBits as
     *  in AgeMatrix. */
    template <std::uint32_t Ways, unsigned RowBits>
    std::uint64_t installLoop(std::span<const Addr> sample,
                              std::uint64_t count, Owner owner);

    /** accessSlow() result bits (the AccessResult fields). */
    static constexpr unsigned kHitBit = 1;
    static constexpr unsigned kWritebackBit = 2;
    static constexpr unsigned kCrossEvictionBit = 4;

    /** Way scan, fill and eviction for a non-MRU access; the stats
     *  bump already happened in access(). Returns the outcome as
     *  k*Bit flags. */
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
    std::uint32_t ageWords_ = 1;  //!< per set: 1 up to 8 ways, else 4
    std::uint64_t allWays_ = 0;   //!< one bit per way of a set
    std::uint64_t syntheticTag = 0;
    std::uint64_t validLines_[numOwners] = {0, 0};
    std::vector<Line> lines;  //!< numSets * assoc, set-major
    /** Compact tag-or-sentinel per way, same indexing as lines. */
    std::vector<Addr> tags_;
    /** Per-set LRU age matrices (AgeMatrix), ageWords_ words each:
     *  replacement reads them, never the MRU memo. */
    std::vector<std::uint64_t> ages_;
    /**
     * Per-set memo of the most recently used way, kept exact by
     * every use of a way: the common "hit the same line again" case
     * is a single compare against tags_ with no scan and no recency
     * update.
     */
    std::vector<std::uint32_t> mruWay_;
    CacheStats stats_;
    Pcg32 rng;
};

} // namespace osp

#endif // OSP_MEM_CACHE_HH
