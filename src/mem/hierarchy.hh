/**
 * @file
 * The three-level memory hierarchy of the paper's Sec. 5.1.
 *
 * L1I (16KB, 2-way), L1D (16KB, 4-way, 2-cycle hit), unified L2
 * (1MB, 8-way, 8-cycle hit), 300-cycle memory latency, and a
 * split-transaction 8-byte bus at 1/5 the core frequency (6.4 GB/s
 * at 4 GHz) whose occupancy adds queueing delay to overlapping
 * misses. All lines are 64 bytes, LRU, write-back/write-allocate.
 *
 * Demand accesses are tagged with their Owner so OS and application
 * statistics stay separable. Writeback traffic occupies the bus but
 * is not counted as demand L2 accesses (a deliberate simplification;
 * the technique only consumes demand-miss counts).
 */

#ifndef OSP_MEM_HIERARCHY_HH
#define OSP_MEM_HIERARCHY_HH

#include <cstdint>
#include <span>

#include "cache.hh"
#include "util/types.hh"

namespace osp
{

/** What kind of memory reference is being made. */
enum class AccessType
{
    InstFetch,
    Load,
    Store,
};

/** Tunable parameters of the hierarchy; defaults match Sec. 5.1. */
struct HierarchyParams
{
    CacheParams l1i{"l1i", 16 * 1024, 2, 64};
    CacheParams l1d{"l1d", 16 * 1024, 4, 64};
    CacheParams l2{"l2", 1024 * 1024, 8, 64};
    Cycles l1iHitLatency = 1;
    Cycles l1dHitLatency = 2;
    Cycles l2HitLatency = 8;
    Cycles memLatency = 300;
    /** Bus occupancy per 64B line: 8 transfers of 8B at 800 MHz seen
     *  from a 4 GHz core = 40 core cycles. */
    Cycles busCyclesPerLine = 40;
    /**
     * TLB model: separate instruction/data TLBs, set-associative
     * over 4KB pages, with a fixed page-walk penalty on a miss.
     * The kernel's large footprints trash the TLBs just like the
     * caches, which is part of why OS-heavy execution is slow;
     * the footprint pollution policy replays this for predicted
     * intervals. tlbEntries must be positive (every hierarchy has
     * both TLBs).
     */
    std::uint32_t tlbEntries = 64;
    std::uint32_t tlbAssoc = 4;
    Cycles tlbMissPenalty = 30;
    /** Seed for the pollution model's random sets. */
    std::uint64_t seed = 1;
};

/** Timing and outcome of one demand access. */
struct AccessOutcome
{
    Cycles latency = 0;  //!< total load-to-use latency
    bool l1Miss = false;
    bool l2Miss = false;
    bool tlbMiss = false;
};

/** Plain counter snapshot used for interval deltas. */
struct HierarchyCounts
{
    std::uint64_t l1iAccesses = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;

    HierarchyCounts
    operator-(const HierarchyCounts &o) const
    {
        HierarchyCounts d;
        d.l1iAccesses = l1iAccesses - o.l1iAccesses;
        d.l1iMisses = l1iMisses - o.l1iMisses;
        d.l1dAccesses = l1dAccesses - o.l1dAccesses;
        d.l1dMisses = l1dMisses - o.l1dMisses;
        d.l2Accesses = l2Accesses - o.l2Accesses;
        d.l2Misses = l2Misses - o.l2Misses;
        return d;
    }

    HierarchyCounts &
    operator+=(const HierarchyCounts &o)
    {
        l1iAccesses += o.l1iAccesses;
        l1iMisses += o.l1iMisses;
        l1dAccesses += o.l1dAccesses;
        l1dMisses += o.l1dMisses;
        l2Accesses += o.l2Accesses;
        l2Misses += o.l2Misses;
        return *this;
    }
};

/**
 * The full cache/memory system. Stateless about time except for bus
 * occupancy: the caller passes the current cycle and receives the
 * access latency including bus queueing.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyParams &params);

    /**
     * Perform one demand access: accessL1(), then accessBeyondL1()
     * at @p now if the L1 missed.
     *
     * Defined inline (below the class) so the dominant TLB-hit +
     * L1-hit chain collapses into the Cache::access header fast
     * paths at the call site; only misses leave the inlined code.
     *
     * @param addr  byte address
     * @param type  fetch / load / store
     * @param owner application or OS
     * @param now   current core cycle (for bus queueing)
     */
    AccessOutcome access(Addr addr, AccessType type, Owner owner,
                         Cycles now);

    /**
     * TLB-and-L1 half of access(). Neither level reads the clock,
     * so a CPU model that needs to know whether a request misses
     * before it can time it (MSHR or write-buffer admission) calls
     * this, picks its slot, then finishes an l1Miss outcome with
     * accessBeyondL1() at the admitted cycle: the state changes and
     * the result equal access() at that cycle, with one L1 lookup.
     */
    AccessOutcome accessL1(Addr addr, AccessType type, Owner owner);

    /** L2-and-beyond half of access(), taken on an L1 miss. */
    AccessOutcome accessBeyondL1(Addr addr, bool is_write,
                                 Owner owner, Cycles now,
                                 AccessOutcome out);

    /**
     * Functional-warming access: update TLB/L1/L2 contents (and the
     * per-owner hit/miss counters) exactly as access() would for the
     * same stream, but leave the bus-queueing clock untouched. Used
     * when fast-forwarding between sampled intervals, where there is
     * no meaningful "now" to charge queueing against — letting
     * warm-up misses occupy the bus would push busFreeAt far past
     * real time and tax the first post-warm-up demand accesses.
     */
    void warmAccess(Addr addr, AccessType type, Owner owner);

    /**
     * Inject predicted OS cache pollution (Sec. 4.5): displace the
     * given number of lines in each level.
     *
     * @param mode victim treatment (see Cache::PollutionMode)
     * @return slots actually affected, summed over the levels (see
     *         Cache::pollute for the clamping rules)
     */
    std::uint64_t pollute(std::uint64_t l1i_lines,
                          std::uint64_t l1d_lines,
                          std::uint64_t l2_lines,
                          Cache::PollutionMode mode =
                              Cache::PollutionMode::Install);

    /** Fill counts of installFootprint(). */
    struct InstallOutcome
    {
        std::uint64_t l1Fills = 0;
        std::uint64_t l2Fills = 0;
    };

    /**
     * Footprint-faithful pollution: silently make the addresses a
     * skipped OS service touched resident (see
     * Cache::installCycled) — the first @p count entries of
     * @p sample, cycled, in the right L1, the L2 and the matching
     * TLB. Each level takes the whole sample in turn (L1, then L2,
     * then TLB): the levels share no state, and each still sees the
     * same addresses in the same order, so this equals installing
     * line by line through all three while walking each level's
     * sets in one sweep.
     */
    InstallOutcome installFootprint(std::span<const Addr> sample,
                                    std::uint64_t count, bool is_code,
                                    Owner owner);

    /** Total (both-owner) counter snapshot, for interval deltas. */
    HierarchyCounts counts() const;

    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }

    const HierarchyParams &params() const { return params_; }

  private:
    friend struct MemoryHierarchyTestPeer;

    HierarchyParams params_;
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    Cache itlb_;
    Cache dtlb_;
    Cycles busFreeAt = 0;
};

inline AccessOutcome
MemoryHierarchy::accessL1(Addr addr, AccessType type, Owner owner)
{
    AccessOutcome out;
    bool is_fetch = (type == AccessType::InstFetch);
    bool is_write = (type == AccessType::Store);
    Cache &l1 = is_fetch ? l1i_ : l1d_;
    Cycles l1_lat =
        is_fetch ? params_.l1iHitLatency : params_.l1dHitLatency;

    // Address translation first.
    Cache &tlb = is_fetch ? itlb_ : dtlb_;
    if (!tlb.access(addr, false, owner).hit) {
        out.tlbMiss = true;
        out.latency += params_.tlbMissPenalty;
    }

    out.l1Miss = !l1.access(addr, is_write, owner).hit;
    out.latency += l1_lat;
    return out;
}

inline AccessOutcome
MemoryHierarchy::access(Addr addr, AccessType type, Owner owner,
                        Cycles now)
{
    AccessOutcome out = accessL1(addr, type, owner);
    if (!out.l1Miss)
        return out;
    return accessBeyondL1(addr, type == AccessType::Store, owner, now,
                          out);
}

inline void
MemoryHierarchy::warmAccess(Addr addr, AccessType type, Owner owner)
{
    bool is_fetch = (type == AccessType::InstFetch);
    bool is_write = (type == AccessType::Store);
    Cache &l1 = is_fetch ? l1i_ : l1d_;

    (is_fetch ? itlb_ : dtlb_).access(addr, false, owner);

    if (!l1.access(addr, is_write, owner).hit)
        l2_.access(addr, is_write, owner);
}

} // namespace osp

#endif // OSP_MEM_HIERARCHY_HH
