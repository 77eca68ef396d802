#include "hierarchy.hh"

#include <algorithm>

namespace osp
{

namespace
{

/** A TLB is a set-associative cache of 4KB pages. */
CacheParams
tlbParams(const HierarchyParams &params, const char *name)
{
    return {name,
            static_cast<std::uint64_t>(params.tlbEntries) * 4096,
            params.tlbAssoc, 4096};
}

} // namespace

MemoryHierarchy::MemoryHierarchy(const HierarchyParams &params)
    : params_(params),
      l1i_(params.l1i, params.seed * 3 + 1),
      l1d_(params.l1d, params.seed * 3 + 2),
      l2_(params.l2, params.seed * 3 + 3),
      itlb_(tlbParams(params, "itlb"), params.seed * 3 + 4),
      dtlb_(tlbParams(params, "dtlb"), params.seed * 3 + 5)
{
}

AccessOutcome
MemoryHierarchy::accessBeyondL1(Addr addr, bool is_write,
                                Owner owner, Cycles now,
                                AccessOutcome out)
{
    // L1 dirty writeback occupies the bus toward L2 only in spirit;
    // the L1<->L2 link is not a modeled resource, so nothing to add.

    auto l2_res = l2_.access(addr, is_write, owner);
    out.latency += params_.l2HitLatency;
    if (l2_res.hit)
        return out;

    out.l2Miss = true;
    // Memory access: latency plus bus occupancy/queueing.
    Cycles request_at = now + out.latency;
    Cycles bus_start = std::max(request_at, busFreeAt);
    busFreeAt = bus_start + params_.busCyclesPerLine;
    Cycles queueing = bus_start - request_at;
    out.latency += queueing + params_.memLatency;
    if (l2_res.writeback) {
        // Posted writeback: occupies the bus, does not stall the load.
        busFreeAt += params_.busCyclesPerLine;
    }
    return out;
}

std::uint64_t
MemoryHierarchy::pollute(std::uint64_t l1i_lines,
                         std::uint64_t l1d_lines,
                         std::uint64_t l2_lines,
                         Cache::PollutionMode mode)
{
    // The levels share no state, so the order of the calls is moot.
    return l1i_.pollute(l1i_lines, mode) +
           l1d_.pollute(l1d_lines, mode) + l2_.pollute(l2_lines, mode);
}

MemoryHierarchy::InstallOutcome
MemoryHierarchy::installFootprint(std::span<const Addr> sample,
                                  std::uint64_t count, bool is_code,
                                  Owner owner)
{
    InstallOutcome out;
    out.l1Fills =
        (is_code ? l1i_ : l1d_).installCycled(sample, count, owner);
    out.l2Fills = l2_.installCycled(sample, count, owner);
    // Footprint pollution displaces TLB entries too.
    (is_code ? itlb_ : dtlb_).installCycled(sample, count, owner);
    return out;
}

HierarchyCounts
MemoryHierarchy::counts() const
{
    HierarchyCounts c;
    c.l1iAccesses = l1i_.stats().totalAccesses();
    c.l1iMisses = l1i_.stats().totalMisses();
    c.l1dAccesses = l1d_.stats().totalAccesses();
    c.l1dMisses = l1d_.stats().totalMisses();
    c.l2Accesses = l2_.stats().totalAccesses();
    c.l2Misses = l2_.stats().totalMisses();
    return c;
}

} // namespace osp
