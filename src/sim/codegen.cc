#include "codegen.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "util/logging.hh"

namespace osp
{

CodeGenerator::CodeGenerator(std::uint64_t seed, std::uint64_t stream)
    : rng(seed, stream)
{
}

void
CodeGenerator::restart(std::uint64_t seed, std::uint64_t stream)
{
    rng.reseed(seed, stream);
    items.clear();
    seqCursors.clear();
    opsSinceLoad = 255;
}

void
CodeGenerator::pushCompute(const CodeProfile &profile,
                           std::uint64_t num_ops, Region data,
                           PatternKind pattern, std::uint32_t stride)
{
    if (num_ops == 0)
        return;
    WorkItem item;
    item.kind = WorkItem::Kind::Compute;
    item.profile = profile;
    item.opsLeft = num_ops;
    item.data = data;
    item.pattern = pattern;
    item.stride = std::max<std::uint32_t>(stride, 1);
    startItem(item);
    items.push_back(item);
}

void
CodeGenerator::pushCopy(const CodeProfile &profile,
                        std::uint64_t bytes, Region src, Region dst)
{
    if (bytes == 0)
        return;
    WorkItem item;
    item.kind = WorkItem::Kind::Copy;
    item.profile = profile;
    std::uint64_t units = (bytes + 15) / 16;
    item.opsLeft = units * 4;
    item.src = src;
    item.dst = dst;
    item.srcCursor = src.base;
    item.dstCursor = dst.base;
    startItem(item);
    items.push_back(item);
}

namespace
{

// Fixed-probability trials in the lowering path, as raw thresholds.
const std::uint64_t kThrHot = Pcg32::rawThreshold(0.9);
const std::uint64_t kThrHalf = Pcg32::rawThreshold(0.5);
const std::uint64_t kThrFlip = Pcg32::rawThreshold(0.02);

} // namespace

void
CodeGenerator::startItem(WorkItem &item)
{
    const CodeProfile &p = item.profile;
    // Cumulative sums formed exactly as the per-op comparisons
    // historically did, so the raw thresholds are bit-equivalent.
    item.thrLoad = Pcg32::rawThreshold(p.loadFrac);
    item.thrStore = Pcg32::rawThreshold(p.loadFrac + p.storeFrac);
    item.thrBranch =
        Pcg32::rawThreshold(p.loadFrac + p.storeFrac + p.branchFrac);
    item.thrFp = Pcg32::rawThreshold(p.loadFrac + p.storeFrac +
                                     p.branchFrac + p.fpFrac);
    item.thrBranchRandom = Pcg32::rawThreshold(p.branchRandomFrac);
    item.thrDep = Pcg32::rawThreshold(p.depChance);
    item.geomIdx =
        geomTableFor(1.0 / std::max(p.depDistMean, 1.0));
    double dep_p = geomTables[item.geomIdx].p;
    item.depDraws = dep_p > 0.0 && dep_p < 1.0;

    const Region &code = item.profile.code;
    if (code.size < 64)
        osp_panic("code region too small: ", code.size);
    // Start fetching at a random 64-byte-aligned block.
    std::uint64_t blocks = code.size / 64;
    item.pc = code.base + 64ULL * rng.range(
        static_cast<std::uint32_t>(std::min<std::uint64_t>(
            blocks, 0xffffffffULL)));
    item.blockLeft = item.profile.blockRunBytes;
    if (item.data.size == 0)
        item.data = Region{code.base, 4096};
    if (item.kind == WorkItem::Kind::Compute &&
        item.pattern == PatternKind::Sequential) {
        auto it = seqCursors.find(item.data.base);
        item.dataCursor = it != seqCursors.end() &&
                                  item.data.contains(it->second)
                              ? it->second
                              : item.data.base;
    } else {
        item.dataCursor = item.data.base;
    }

    // Fixed per-item draw bounds (code blocks, data lines, hot
    // lines), formed exactly as nextPc()/dataAddr() historically
    // computed them per draw.
    item.pcDraw = Pcg32::makeRange(
        static_cast<std::uint32_t>(std::min<std::uint64_t>(
            blocks, 0xffffffffULL)));
    const Region &region = item.data;
    std::uint64_t lines =
        std::max<std::uint64_t>(region.size / 64, 1);
    item.dataDraw = Pcg32::makeRange(
        static_cast<std::uint32_t>(std::min<std::uint64_t>(
            lines, 0xffffffffULL)));
    std::uint64_t hot =
        std::max<std::uint64_t>(region.size / 10, 64);
    std::uint64_t hot_lines = std::max<std::uint64_t>(hot / 64, 1);
    item.hotDraw = Pcg32::makeRange(
        static_cast<std::uint32_t>(std::min<std::uint64_t>(
            hot_lines, 0xffffffffULL)));
}

std::uint32_t
CodeGenerator::geomTableFor(double p)
{
    for (std::size_t i = 0; i < geomTables.size(); ++i)
        if (geomTables[i].p == p)
            return static_cast<std::uint32_t>(i);
    geomTables.push_back(Pcg32::makeGeomTable(p));
    return static_cast<std::uint32_t>(geomTables.size() - 1);
}

std::uint64_t
CodeGenerator::pendingOps() const
{
    std::uint64_t n = 0;
    for (const auto &item : items)
        n += item.opsLeft;
    return n;
}

Addr
CodeGenerator::nextPc(WorkItem &item)
{
    const Region &code = item.profile.code;
    if (item.blockLeft < 4) {
        // Jump to a new block within the code footprint.
        item.pc = code.base + 64ULL * rng.rangeWith(item.pcDraw);
        item.blockLeft = item.profile.blockRunBytes;
    }
    Addr pc = item.pc;
    item.pc += 4;
    item.blockLeft -= 4;
    if (item.pc >= code.base + code.size) {
        item.pc = code.base;
        item.blockLeft = item.profile.blockRunBytes;
    }
    return pc;
}

Addr
CodeGenerator::dataAddr(WorkItem &item, bool chase)
{
    const Region &region = item.data;
    if (region.size == 0)
        return region.base;
    switch (chase ? PatternKind::PointerChase : item.pattern) {
      case PatternKind::Sequential:
        {
            Addr a = item.dataCursor;
            item.dataCursor += item.stride;
            if (item.dataCursor >= region.base + region.size)
                item.dataCursor = region.base;
            return a;
        }
      case PatternKind::Random:
      case PatternKind::PointerChase:
        return region.base + 64ULL * rng.rangeWith(item.dataDraw);
      case PatternKind::Hot:
        // 90% of accesses hit the first 10% of the region.
        return region.base +
               64ULL * rng.rangeWith(rng.chanceRaw(kThrHot)
                                         ? item.hotDraw
                                         : item.dataDraw);
    }
    return region.base;
}

MicroOp
CodeGenerator::next()
{
    if (items.empty())
        osp_panic("CodeGenerator::next() called with no work queued");
    WorkItem &item = items.front();
    MicroOp op = item.kind == WorkItem::Kind::Compute
                     ? lowerCompute<Lowering::Full>(item)
                     : lowerCopy<Lowering::Full>(item);
    item.opsLeft -= 1;
    if (item.opsLeft == 0) {
        if (item.kind == WorkItem::Kind::Compute &&
            item.pattern == PatternKind::Sequential) {
            seqCursors[item.data.base] = item.dataCursor;
        }
        items.pop_front();
    }
    return op;
}

template <Lowering L>
std::size_t
CodeGenerator::nextBlock(MicroOp *out, std::size_t cap)
{
    std::size_t n = 0;
    while (n < cap && !items.empty()) {
        WorkItem &item = items.front();
        std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(cap - n, item.opsLeft));
        if (item.kind == WorkItem::Kind::Compute) {
            for (std::size_t k = 0; k < take; ++k)
                out[n++] = lowerCompute<L>(item);
        } else {
            for (std::size_t k = 0; k < take; ++k)
                out[n++] = lowerCopy<L>(item);
        }
        item.opsLeft -= take;
        if (item.opsLeft == 0) {
            if (item.kind == WorkItem::Kind::Compute &&
                item.pattern == PatternKind::Sequential) {
                seqCursors[item.data.base] = item.dataCursor;
            }
            items.pop_front();
        }
    }
    if constexpr (L == Lowering::Lean) {
        // The per-op load-distance update was skipped; recover its
        // end value from the block, so a later Full lowering chases
        // the same producer it would have.
        std::size_t i = n;
        while (i > 0 && out[i - 1].cls != OpClass::Load)
            --i;
        opsSinceLoad = static_cast<std::uint32_t>(
            i ? std::min<std::size_t>(n - i + 1, 255)
              : std::min<std::size_t>(opsSinceLoad + n, 255));
    }
    return n;
}

template <Lowering L>
MicroOp
CodeGenerator::lowerCompute(WorkItem &item)
{
    constexpr bool full = L == Lowering::Full;
    MicroOp op;
    op.pc = nextPc(item);

    // One draw, compared against the item's precomputed raw
    // thresholds — outcome-identical to the historical
    // uniform()-vs-cumulative-fraction chain (see rawThreshold).
    std::uint32_t roll = rng.next();
    bool chase = item.pattern == PatternKind::PointerChase;
    if (roll < item.thrLoad) {
        op.cls = OpClass::Load;
        op.effAddr = dataAddr(item, chase);
        if constexpr (full) {
            op.execLat = 0;  // latency comes from the memory system
            if (chase) {
                // Serialize on the previous load (pointer
                // dereference); opsSinceLoad is 1 when the previous
                // op was a load.
                op.depDist = static_cast<std::uint8_t>(
                    std::min<std::uint32_t>(opsSinceLoad, 255));
            }
        }
    } else if (roll < item.thrStore) {
        op.cls = OpClass::Store;
        op.effAddr = dataAddr(item, false);
        op.execLat = 1;
    } else if (roll < item.thrBranch) {
        op.cls = OpClass::Branch;
        op.execLat = 1;
        if (rng.chanceRaw(item.thrBranchRandom)) {
            op.taken = rng.chanceRaw(kThrHalf);
        } else {
            // Strongly biased (loop-like) branch; predictors learn it.
            op.taken = !rng.chanceRaw(kThrFlip);
        }
    } else if (roll < item.thrFp) {
        op.cls = OpClass::FpAlu;
        if constexpr (full)
            op.execLat = item.profile.fpLatency;
    } else {
        op.cls = OpClass::IntAlu;
        op.execLat = 1;
    }

    if (op.cls != OpClass::Load || !chase) {
        if (rng.chanceRaw(item.thrDep)) {
            if constexpr (full) {
                std::uint32_t d =
                    rng.geometricWith(geomTables[item.geomIdx]);
                op.depDist = static_cast<std::uint8_t>(
                    std::min<std::uint32_t>(d, 255));
            } else if (item.depDraws) {
                rng.next();  // the distance draw, value unused
            }
        }
    }
    if constexpr (full) {
        opsSinceLoad = op.cls == OpClass::Load
                           ? 1
                           : std::min<std::uint32_t>(opsSinceLoad + 1,
                                                     255);
    }
    return op;
}

template <Lowering L>
MicroOp
CodeGenerator::lowerCopy(WorkItem &item)
{
    constexpr bool full = L == Lowering::Full;
    MicroOp op;
    op.pc = nextPc(item);
    switch (item.copyPhase) {
      case 0:
        op.cls = OpClass::Load;
        op.effAddr = item.srcCursor;
        if constexpr (full)
            op.execLat = 0;
        break;
      case 1:
        op.cls = OpClass::Store;
        op.effAddr = item.dstCursor;
        op.execLat = 1;
        if constexpr (full)
            op.depDist = 1;  // stores the value just loaded
        break;
      case 2:
        op.cls = OpClass::IntAlu;
        op.execLat = 1;
        break;
      case 3:
      default:
        op.cls = OpClass::Branch;
        op.execLat = 1;
        op.taken = true;  // loop-closing branch, well predicted
        item.srcCursor += 16;
        item.dstCursor += 16;
        if (item.src.size &&
            item.srcCursor >= item.src.base + item.src.size) {
            item.srcCursor = item.src.base;
        }
        if (item.dst.size &&
            item.dstCursor >= item.dst.base + item.dst.size) {
            item.dstCursor = item.dst.base;
        }
        break;
    }
    if constexpr (full) {
        opsSinceLoad = op.cls == OpClass::Load
                           ? 1
                           : std::min<std::uint32_t>(opsSinceLoad + 1,
                                                     255);
    }
    item.copyPhase = (item.copyPhase + 1) & 3;
    return op;
}

namespace
{

/** Seed streams of drawFootprint()'s data and code draws. */
constexpr std::uint64_t kFootprintDataStream = 0xF007D47AULL;
constexpr std::uint64_t kFootprintCodeStream = 0xF007C0DEULL;

/**
 * Positions 0..n-1 in a golden-ratio (Weyl) order, one per next():
 * (start + i * step) mod n, with a uniform start and step the
 * integer nearest n / φ that is coprime to n. Each position comes
 * up once per n calls and each call's position is uniform over
 * [0, n). One RNG draw per order and an add per position: no draw
 * per position and no table, as a random permutation would need.
 */
class GoldenOrder
{
  public:
    GoldenOrder(std::uint32_t n, Pcg32 &rng) : n(n), cur(rng.range(n))
    {
        step = static_cast<std::uint32_t>(
            std::max(1.0, std::round(n * 0.6180339887498949)));
        while (std::gcd(step, n) != 1)
            ++step;
        step %= n;
    }

    std::uint32_t
    next()
    {
        const std::uint32_t pos = cur;
        cur += step;
        if (cur >= n)
            cur -= n;
        return pos;
    }

  private:
    std::uint32_t n;
    std::uint32_t cur;
    std::uint32_t step;
};

/**
 * Draw up to @p lines addresses on distinct cache lines: positions
 * come in GoldenOrder over the positions @p count gives each of @p
 * items, @p at maps each (item, position within the item) to an
 * address, and an address whose line is already drawn is skipped.
 * The draw stops at @p lines addresses or when every position is
 * drawn. @p ends, @p buckets and @p seen are scratch, reused
 * across calls.
 */
template <class Items, class Count, class At>
void
drawLines(const Items &items, std::vector<std::uint64_t> &ends,
          std::vector<std::uint32_t> &buckets,
          std::vector<std::uint64_t> &seen, std::size_t lines,
          Pcg32 &rng, Count count, At at, std::vector<Addr> &out)
{
    ends.clear();
    std::uint64_t total = 0;
    for (const auto &item : items)
        ends.push_back(total += count(item));
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(total, 0xffffffffULL));
    const std::size_t k = std::min<std::size_t>(lines, n);
    if (k == 0)
        return;
    // The first item holding each 64-position bucket's first
    // position: a position's item is its bucket's, or a later one
    // that ends inside the bucket.
    buckets.resize((static_cast<std::size_t>(n) + 63) >> 6);
    std::uint32_t idx = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        while (ends[idx] <= (std::uint64_t{b} << 6))
            ++idx;
        buckets[b] = idx;
    }
    // An open-addressing set of line + 1 words at most half full:
    // at most k lines are kept, so it never grows.
    std::size_t size = 16;
    while (size < 2 * k)
        size <<= 1;
    seen.assign(size, 0);
    const unsigned shift =
        64 - static_cast<unsigned>(std::countr_zero(size));
    GoldenOrder order(n, rng);
    for (std::uint32_t drawn = 0; drawn < n && out.size() < k;
         ++drawn) {
        const std::uint32_t pos = order.next();
        idx = buckets[pos >> 6];
        while (ends[idx] <= pos)
            ++idx;
        const Addr a = at(items[idx], pos - (idx ? ends[idx - 1] : 0));
        const std::uint64_t key = (a >> 6) + 1;
        std::size_t h = static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ULL) >> shift);
        while (seen[h] != 0 && seen[h] != key)
            h = (h + 1) & (size - 1);
        if (seen[h] == 0) {
            seen[h] = key;
            out.push_back(a);
        }
    }
}

} // namespace

void
CodeGenerator::drawFootprint(std::size_t data_lines,
                             std::size_t code_lines,
                             std::vector<Addr> &data,
                             std::vector<Addr> &code)
{
    data.clear();
    code.clear();
    Pcg32 fork = rng;
    Pcg32 data_rng(fork.next64(), kFootprintDataStream);
    Pcg32 code_rng(fork.next64(), kFootprintCodeStream);

    drawLines(
        items, drawEnds, drawBuckets, drawSeen, data_lines, data_rng,
        [](const WorkItem &item) -> std::uint64_t {
            if (item.kind == WorkItem::Kind::Copy)
                return item.opsLeft / 2;
            return static_cast<std::uint64_t>(
                (static_cast<unsigned __int128>(item.opsLeft) *
                 item.thrStore) >>
                32);
        },
        [&](const WorkItem &item, std::uint64_t p) {
            return footprintData(item, p, data_rng);
        },
        data);
    drawLines(
        items, drawEnds, drawBuckets, drawSeen, code_lines, code_rng,
        [](const WorkItem &item) -> std::uint64_t {
            return (item.opsLeft + 15) / 16;
        },
        [&](const WorkItem &item, std::uint64_t p) {
            return footprintCode(item, 16 * p, code_rng);
        },
        code);
}

Addr
CodeGenerator::footprintData(const WorkItem &item, std::uint64_t p,
                             Pcg32 &r) const
{
    if (item.kind == WorkItem::Kind::Copy) {
        // Unit p / 2 of the copy loop, whose cursors step 16 bytes
        // and wrap to the region base.
        const bool store = p & 1;
        const Region &region = store ? item.dst : item.src;
        const Addr cursor = store ? item.dstCursor : item.srcCursor;
        std::uint64_t unit = (cursor - region.base) / 16 + p / 2;
        const std::uint64_t lap = (region.size + 15) / 16;
        if (region.size && unit >= lap)
            unit %= lap;
        return region.base + 16 * unit;
    }
    const Region &region = item.data;
    switch (item.pattern) {
      case PatternKind::Sequential:
        {
            // The cursor steps by stride from dataCursor to the
            // region end, then laps from the region base.
            const Addr end = region.base + region.size;
            if (p * item.stride < end - item.dataCursor)
                return item.dataCursor + p * item.stride;
            const std::uint64_t first =
                (end - item.dataCursor + item.stride - 1) /
                item.stride;
            const std::uint64_t lap =
                (region.size + item.stride - 1) / item.stride;
            return region.base + (p - first) % lap * item.stride;
        }
      case PatternKind::Random:
      case PatternKind::PointerChase:
        return region.base + 64ULL * r.rangeWith(item.dataDraw);
      case PatternKind::Hot:
        return region.base +
               64ULL * r.rangeWith(r.chanceRaw(kThrHot)
                                       ? item.hotDraw
                                       : item.dataDraw);
    }
    return region.base;
}

Addr
CodeGenerator::footprintCode(const WorkItem &item, std::uint64_t t,
                             Pcg32 &r) const
{
    // The walk runs blockRunBytes / 4 ops from the item's start pc,
    // then from a uniformly drawn block per run, wrapping at the
    // region end.
    const Region &code = item.profile.code;
    const std::uint64_t run = item.profile.blockRunBytes / 4;
    const std::uint64_t first = item.blockLeft / 4;
    Addr pc;
    if (t < first)
        pc = item.pc + 4 * t;
    else
        pc = code.base + 64ULL * r.rangeWith(item.pcDraw) +
             (run ? 4 * ((t - first) % run) : 0);
    const Addr end = code.base + code.size;
    return pc < end ? pc : code.base + (pc - end) % code.size;
}

template std::size_t
CodeGenerator::nextBlock<Lowering::Full>(MicroOp *, std::size_t);
template std::size_t
CodeGenerator::nextBlock<Lowering::Lean>(MicroOp *, std::size_t);

} // namespace osp
