#include "cache.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace osp
{

namespace
{

bool
isPowerOfTwo(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Exact log2 of a power of two (C++20 countr_zero, no loop). */
std::uint32_t
log2u(std::uint64_t x)
{
    return static_cast<std::uint32_t>(std::countr_zero(x));
}

} // namespace

Cache::Cache(const CacheParams &params, std::uint64_t seed)
    : params_(params), rng(seed, 0x9e3779b97f4a7c15ULL)
{
    if (!isPowerOfTwo(params_.lineBytes) || params_.lineBytes < 2) {
        osp_fatal(params_.name,
                  ": line size must be a power of two >= 2");
    }
    if (params_.assoc == 0)
        osp_fatal(params_.name, ": associativity must be >= 1");
    if (params_.sizeBytes == 0 ||
        params_.sizeBytes % (static_cast<std::uint64_t>(
                                 params_.lineBytes) *
                             params_.assoc) != 0) {
        osp_fatal(params_.name,
                  ": size must be a positive multiple of line size"
                  " times associativity");
    }
    std::uint64_t sets =
        params_.sizeBytes /
        (static_cast<std::uint64_t>(params_.lineBytes) *
         params_.assoc);
    if (!isPowerOfTwo(sets))
        osp_fatal(params_.name, ": number of sets must be a power of"
                                " two, got ", sets);
    numSets_ = static_cast<std::uint32_t>(sets);
    lineShift = log2u(params_.lineBytes);
    std::size_t n = static_cast<std::size_t>(numSets_) * params_.assoc;
    lines.resize(n);
    tags_.assign(n, kInvalidTag);
    stamps_.assign(n, 0);
    mruWay_.assign(numSets_, 0);
}

std::uint32_t
Cache::findWay(std::size_t base, Addr tag,
               std::uint32_t &free_way) const
{
    const Addr *t = &tags_[base];
    free_way = kNoWay;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (t[w] == tag)
            return w;
        if (t[w] == kInvalidTag && free_way == kNoWay)
            free_way = w;
    }
    return kNoWay;
}

std::uint32_t
Cache::victimWay(std::size_t base, std::uint32_t free_way)
{
    // Invalid way first.
    if (free_way != kNoWay)
        return free_way;
    return lruWay(base, false);
}

std::uint32_t
Cache::lruWay(std::size_t base, bool app_only) const
{
    // Branch-free argmin (the victim's way is data-dependent, so a
    // compare-and-branch mispredicts about once per fill): a strict
    // compare keeps the lowest way on ties, and ineligible ways
    // never beat the ~0 start value (real stamps are far below it).
    const std::uint64_t *stamp = &stamps_[base];
    std::uint64_t victim = kNoWay;
    std::uint64_t best = ~std::uint64_t(0);
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        bool eligible =
            !app_only || lines[base + w].owner == Owner::App;
        std::uint64_t older = 0 - static_cast<std::uint64_t>(
                                      eligible & (stamp[w] < best));
        victim = (w & older) | (victim & ~older);
        best = (stamp[w] & older) | (best & ~older);
    }
    return static_cast<std::uint32_t>(victim);
}

unsigned
Cache::accessSlow(std::uint32_t set, Addr tag, std::size_t base,
                  bool is_write, Owner owner)
{
    std::uint32_t free_way;
    std::uint32_t hit = findWay(base, tag, free_way);
    if (hit != kNoWay) {
        stamps_[base + hit] = lruClock;
        if (is_write)
            lines[base + hit].dirty = true;
        mruWay_[set] = hit;
        return kHitBit;
    }

    // Miss: allocate (write-allocate policy), evicting if needed.
    stats_.misses[static_cast<int>(owner)] += 1;
    unsigned result = 0;
    std::uint32_t way = victimWay(base, free_way);
    Line &line = lines[base + way];
    if (line.valid) {
        stats_.evictions += 1;
        if (line.dirty) {
            stats_.writebacks += 1;
            result |= kWritebackBit;
        }
        if (line.owner == Owner::App && owner == Owner::Os) {
            stats_.crossEvictions += 1;
            result |= kCrossEvictionBit;
        }
    }
    retag(base + way, true, owner);
    tags_[base + way] = tag;
    line.dirty = is_write;
    stamps_[base + way] = lruClock;
    mruWay_[set] = way;
    return result;
}

bool
Cache::install(Addr addr, Owner owner)
{
    std::uint32_t set = setIndex(addr);
    Addr tag = tagOf(addr);
    std::size_t base = static_cast<std::size_t>(set) * params_.assoc;
    ++lruClock;
    // findWay()'s scan with selects instead of an early exit: a
    // footprint's installs hit and miss at random, so a branch on
    // each way's tag mispredicts. High way to low leaves free_way
    // at the lowest invalid way, as findWay() does.
    const Addr *t = &tags_[base];
    std::uint32_t hit = kNoWay;
    std::uint32_t free_way = kNoWay;
    for (std::uint32_t w = params_.assoc; w-- > 0;) {
        hit = t[w] == tag ? w : hit;
        free_way = t[w] == kInvalidTag ? w : free_way;
    }
    if (hit != kNoWay) {
        stamps_[base + hit] = lruClock;
        return false;
    }
    std::uint32_t way = victimWay(base, free_way);
    Line &line = lines[base + way];
    if (line.valid)
        stats_.injectedEvictions += 1;
    stats_.injectedFills += 1;
    retag(base + way, true, owner);
    tags_[base + way] = tag;
    line.dirty = false;
    stamps_[base + way] = lruClock;
    mruWay_[set] = way;
    return true;
}

std::uint64_t
Cache::installCycled(std::span<const Addr> sample,
                     std::uint64_t count, Owner owner)
{
    std::uint64_t fills = 0;
    if (sample.empty())
        return fills;
    std::size_t k = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        fills += install(sample[k], owner);
        if (++k == sample.size())
            k = 0;
    }
    return fills;
}

bool
Cache::probe(Addr addr) const
{
    std::uint32_t set = setIndex(addr);
    Addr tag = tagOf(addr);
    std::size_t base = static_cast<std::size_t>(set) * params_.assoc;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (tags_[base + w] == tag)
            return true;
    }
    return false;
}

std::uint64_t
Cache::pollute(std::uint64_t count, PollutionMode mode)
{
    // Clamp invalidation requests to the lines that can actually be
    // evicted: beyond that every draw is a guaranteed no-op, and the
    // old unclamped loop both wasted RNG draws and let callers
    // believe a request larger than the cache was meaningful.
    if (mode == PollutionMode::InvalidateApp)
        count = std::min(count, residentLines(Owner::App));
    else if (mode == PollutionMode::InvalidateAny)
        count = std::min(count, residentLines());

    std::uint64_t affected = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint32_t set = rng.range(numSets_);
        std::size_t base =
            static_cast<std::size_t>(set) * params_.assoc;

        // Invalid slot first: a free victim for Install, a no-op
        // draw for the invalidating modes (Sec. 4.5 victim order).
        // Otherwise the LRU eligible line (any owner, or application
        // lines only for InvalidateApp).
        std::uint32_t unused;
        std::uint32_t victim = findWay(base, kInvalidTag, unused);
        if (victim != kNoWay) {
            if (mode != PollutionMode::Install)
                continue;
        } else {
            victim =
                lruWay(base, mode == PollutionMode::InvalidateApp);
            if (victim == kNoWay)
                continue;
        }

        std::size_t idx = base + static_cast<std::size_t>(victim);
        Line &line = lines[idx];
        bool evicted = line.valid;
        if (mode == PollutionMode::Install) {
            // Synthetic fill: a tag outside the architectural
            // address space so it can never hit, owned by the OS,
            // MRU (the skipped service just touched it).
            retag(idx, true, Owner::Os);
            tags_[idx] = (1ULL << 52) + syntheticTag++;
            line.dirty = false;
            stamps_[idx] = ++lruClock;
            stats_.injectedFills += 1;
        } else {
            retag(idx, false, line.owner);
            line.dirty = false;
        }
        // Only a displaced valid line is an eviction; filling an
        // invalid slot used to be over-reported here.
        if (evicted)
            stats_.injectedEvictions += 1;
        ++affected;
    }
    return affected;
}

void
Cache::flush()
{
    for (Line &line : lines) {
        line.valid = false;
        line.dirty = false;
    }
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(stamps_.begin(), stamps_.end(), 0);
    std::fill(mruWay_.begin(), mruWay_.end(), 0u);
    validLines_[0] = 0;
    validLines_[1] = 0;
    // With every line invalid this state is unobservable; rewinding
    // it makes a reused cache's LRU stamps and synthetic tags
    // independent of prior-run history (see header comment).
    lruClock = 0;
    syntheticTag = 0;
}

} // namespace osp
