#include "cache.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace osp
{

Cache::Cache(const CacheParams &params, std::uint64_t seed)
    : params_(params), rng(seed, 0x9e3779b97f4a7c15ULL)
{
    if (!std::has_single_bit(params_.lineBytes) ||
        params_.lineBytes < 2) {
        osp_fatal(params_.name,
                  ": line size must be a power of two >= 2");
    }
    if (params_.assoc == 0 || params_.assoc > 16)
        osp_fatal(params_.name, ": associativity must be 1 to 16 (the"
                  " LRU age matrix's limit), got ", params_.assoc);
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
    if (!std::has_single_bit(sets))
        osp_fatal(params_.name, ": number of sets must be a power of"
                                " two, got ", sets);
    numSets_ = static_cast<std::uint32_t>(sets);
    lineShift =
        static_cast<std::uint32_t>(std::countr_zero(params_.lineBytes));
    ageWords_ = params_.assoc <= 8 ? 1 : 4;
    allWays_ = (std::uint64_t(1) << params_.assoc) - 1;
    std::size_t n = static_cast<std::size_t>(numSets_) * params_.assoc;
    lines.resize(n);
    tags_.assign(n, kInvalidTag);
    ages_.assign(static_cast<std::size_t>(numSets_) * ageWords_, 0);
    mruWay_.assign(numSets_, 0);
}

template <std::uint32_t Ways>
std::uint32_t
Cache::findWay(const Addr *t, std::uint32_t assoc, Addr tag,
               std::uint32_t &free_way)
{
    // Selects instead of an early exit: hits and misses come in no
    // learnable order, so a branch on each way's tag mispredicts.
    // Scanning high way to low leaves the lowest match of each.
    const std::uint32_t n = Ways ? Ways : assoc;
    std::uint32_t hit = kNoWay;
    free_way = kNoWay;
    for (std::uint32_t w = n; w-- > 0;) {
        hit = t[w] == tag ? w : hit;
        free_way = t[w] == kInvalidTag ? w : free_way;
    }
    return hit;
}

/**
 * The LRU age matrix of a set of up to RowBits (8 or 16) ways: row
 * w has bit j set when way w was used after way j, and 64 / RowBits
 * rows share a word. Using a way fills its row and clears its
 * column. Every way of a full set has been used (only a use fills a
 * way), so there the rows order the ways as last-use stamps would,
 * and the least recently used way is the one whose row is empty.
 */
template <unsigned RowBits>
struct Cache::AgeMatrix
{
    static constexpr unsigned kRows = 64 / RowBits;  //!< per word
    static constexpr unsigned kWords = RowBits / kRows;
    /** Bit 0 of every row; column j is kColumn << j. */
    static constexpr std::uint64_t kColumn =
        ~std::uint64_t(0) / ((std::uint64_t(1) << RowBits) - 1);
    /** Every bit but each row's top one. */
    static constexpr std::uint64_t kLow =
        kColumn * ((std::uint64_t(1) << (RowBits - 1)) - 1);
    /** Bit r of each row r of word 0 (of word i: << i * kRows). */
    static constexpr std::uint64_t kDiagonal =
        RowBits == 8 ? 0x8040201008040201 : 0x0008000400020001;

    /** Way @p way was used; @p all_ways has one bit per way. The
     *  word index is a constant 0 for one word, so the compiler
     *  merges both updates into one read-modify-write. */
    static void
    use(std::uint64_t *age, std::uint32_t way, std::uint64_t all_ways)
    {
        age[way / kRows % kWords] |= all_ways << (way % kRows * RowBits);
        for (unsigned i = 0; i < kWords; ++i)
            age[i] &= ~(kColumn << way);
    }

    /** The way of mask @p ways used before every other way of it
     *  (kNoWay if @p ways is empty). */
    static std::uint32_t
    oldest(const std::uint64_t *age, std::uint64_t ways)
    {
        // Keep the eligible columns, and make each ineligible row
        // (rows past the associativity too) non-empty through its
        // otherwise clear diagonal bit; an exact SWAR zero test then
        // marks the top bit of the one empty row.
        const std::uint64_t cols = ways * kColumn;
        for (unsigned i = 0; i < kWords; ++i) {
            const std::uint64_t x =
                (age[i] & cols) | ((kDiagonal << (i * kRows)) & ~cols);
            const std::uint64_t empty =
                ~(((x & kLow) + kLow) | x | kLow);
            if (empty != 0) {
                return static_cast<std::uint32_t>(
                    i * kRows + std::countr_zero(empty) / RowBits);
            }
        }
        return kNoWay;
    }
};

inline void
Cache::touch(std::uint32_t set, std::uint32_t way)
{
    std::uint64_t *age = &ages_[std::size_t(set) * ageWords_];
    if (ageWords_ == 1)
        AgeMatrix<8>::use(age, way, allWays_);
    else
        AgeMatrix<16>::use(age, way, allWays_);
    mruWay_[set] = way;
}

inline std::uint32_t
Cache::lruWay(std::uint32_t set, std::uint64_t ways) const
{
    const std::uint64_t *age = &ages_[std::size_t(set) * ageWords_];
    return ageWords_ == 1 ? AgeMatrix<8>::oldest(age, ways)
                          : AgeMatrix<16>::oldest(age, ways);
}

unsigned
Cache::accessSlow(std::uint32_t set, Addr tag, std::size_t base,
                  bool is_write, Owner owner)
{
    std::uint32_t free_way;
    std::uint32_t way =
        findWay<0>(&tags_[base], params_.assoc, tag, free_way);
    const bool miss = way == kNoWay;
    // A miss allocates (write-allocate policy) into an invalid way
    // if the set has one, else evicts the LRU way. Recency first,
    // as in installLoop().
    if (miss)
        way = free_way != kNoWay ? free_way : lruWay(set, allWays_);
    touch(set, way);
    unsigned result = kHitBit;
    if (miss) {
        stats_.misses[static_cast<int>(owner)] += 1;
        result = 0;
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
        line.dirty = false;
    }
    lines[base + way].dirty |= is_write;
    return result;
}

std::uint64_t
Cache::installCycled(std::span<const Addr> sample,
                     std::uint64_t count, Owner owner)
{
    if (sample.empty())
        return 0;
    switch (params_.assoc) {
      case 2:
        return installLoop<2, 8>(sample, count, owner);
      case 4:
        return installLoop<4, 8>(sample, count, owner);
      case 8:
        return installLoop<8, 8>(sample, count, owner);
      case 16:
        return installLoop<16, 16>(sample, count, owner);
      default:
        return ageWords_ == 1 ? installLoop<0, 8>(sample, count, owner)
                              : installLoop<0, 16>(sample, count, owner);
    }
}

template <std::uint32_t Ways, unsigned RowBits>
std::uint64_t
Cache::installLoop(std::span<const Addr> sample, std::uint64_t count,
                   Owner owner)
{
    using Age = AgeMatrix<RowBits>;
    const std::uint32_t assoc = Ways ? Ways : params_.assoc;
    const std::uint64_t all_ways =
        Ways ? (std::uint64_t(1) << Ways) - 1 : allWays_;
    const std::uint32_t set_mask = numSets_ - 1;
    const std::uint32_t shift = lineShift;
    Addr *const tags = tags_.data();
    std::uint64_t *const ages = ages_.data();
    Line *const meta = lines.data();
    std::uint32_t *const mru = mruWay_.data();
    // The counters live in registers for the whole footprint and are
    // written back once: through the members, every store to the
    // tag, age and line arrays would force them to be reloaded.
    std::uint64_t fills = 0;
    std::uint64_t displaced_app = 0;
    std::uint64_t displaced_os = 0;
    std::size_t k = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const Addr tag = sample[k] >> shift;
        if (++k == sample.size())
            k = 0;
        const std::uint32_t set =
            static_cast<std::uint32_t>(tag) & set_mask;
        const std::size_t base = static_cast<std::size_t>(set) * assoc;
        std::uint64_t *const age = ages + std::size_t(set) * Age::kWords;
        std::uint32_t free_way;
        std::uint32_t way =
            findWay<Ways>(tags + base, assoc, tag, free_way);
        const bool miss = way == kNoWay;
        if (miss) {
            way = free_way != kNoWay ? free_way
                                     : Age::oldest(age, all_ways);
        }
        // Recency first: after the tag store below (same element
        // type) the compiler would have to reload the age word.
        Age::use(age, way, all_ways);
        mru[set] = way;
        if (miss) {
            Line &line = meta[base + way];
            displaced_app += line.valid & (line.owner == Owner::App);
            displaced_os += line.valid & (line.owner == Owner::Os);
            line.valid = true;
            line.dirty = false;
            line.owner = owner;
            tags[base + way] = tag;
            ++fills;
        }
    }
    validLines_[static_cast<int>(Owner::App)] -= displaced_app;
    validLines_[static_cast<int>(Owner::Os)] -= displaced_os;
    validLines_[static_cast<int>(owner)] += fills;
    stats_.injectedEvictions += displaced_app + displaced_os;
    stats_.injectedFills += fills;
    return fills;
}

bool
Cache::probe(Addr addr) const
{
    std::uint32_t set = setIndex(addr);
    Addr tag = tagOf(addr);
    std::size_t base = static_cast<std::size_t>(set) * params_.assoc;
    std::uint32_t unused;
    return findWay<0>(&tags_[base], params_.assoc, tag, unused) !=
           kNoWay;
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

    std::uint64_t affected = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint32_t set = rng.range(numSets_);
        std::size_t base =
            static_cast<std::size_t>(set) * params_.assoc;

        // Invalid slot first: a free victim for Install, a no-op
        // draw for InvalidateApp (Sec. 4.5 victim order). Otherwise
        // the LRU eligible line (any owner for Install, application
        // lines only for InvalidateApp).
        std::uint32_t unused;
        std::uint32_t victim =
            findWay<0>(&tags_[base], params_.assoc, kInvalidTag, unused);
        if (victim != kNoWay) {
            if (mode != PollutionMode::Install)
                continue;
        } else {
            std::uint64_t ways = allWays_;
            if (mode == PollutionMode::InvalidateApp)
                for (std::uint32_t w = 0; w < params_.assoc; ++w)
                    if (lines[base + w].owner != Owner::App)
                        ways &= ~(std::uint64_t(1) << w);
            victim = lruWay(set, ways);
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
            touch(set, victim);
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

} // namespace osp
