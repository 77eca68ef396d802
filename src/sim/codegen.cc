#include "codegen.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <utility>

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
 * Positions 0..n-1 in a golden-ratio (Weyl) order: the position of
 * visit v is (start + v * step) mod n, with a uniform start and step
 * the integer nearest n / φ that is coprime to n. Each position comes
 * up once per n visits and each visit's position is uniform over
 * [0, n). One RNG draw per order: no draw per position and no table,
 * as a random permutation would need.
 *
 * The order is a bijection, so a pass over the positions in their
 * own order can place each at its visit index, (p - start) * step⁻¹
 * mod n, one modular add per position. put() marks visit v with a
 * word, and forEach() hands the marked words over in visit order.
 * @p bits and @p slots are scratch, reused across calls; a slot is
 * read only where put() marked its visit.
 */
class VisitOrder
{
  public:
    VisitOrder(std::uint32_t n, Pcg32 &rng,
               std::vector<std::uint64_t> &bits,
               std::vector<std::uint64_t> &slots)
        : n(n), start(rng.range(n)), bits(bits), slots(slots)
    {
        std::uint32_t step = static_cast<std::uint32_t>(
            std::max(1.0, std::round(n * 0.6180339887498949)));
        while (std::gcd(step, n) != 1)
            ++step;
        step %= n;
        // step⁻¹ mod n by the extended Euclidean algorithm.
        std::int64_t r0 = n, r1 = step, t0 = 0, t1 = 1;
        while (r1 != 0) {
            const std::int64_t q = r0 / r1;
            r0 = std::exchange(r1, r0 - q * r1);
            t0 = std::exchange(t1, t0 - q * t1);
        }
        inv = static_cast<std::uint64_t>(t0 < 0 ? t0 + n : t0) % n;
        bits.assign((static_cast<std::size_t>(n) + 63) >> 6, 0);
        if (slots.size() < n)
            slots.resize(n);
    }

    /** Visit index of position @p p (< n). */
    std::uint64_t
    visit(std::uint64_t p) const
    {
        return (p + n - start) % n * inv % n;
    }

    /** Visit index @p v moved on by @p dv (< n), mod n. */
    std::uint64_t
    advance(std::uint64_t v, std::uint64_t dv) const
    {
        v += dv;
        return v >= n ? v - n : v;
    }

    /** The visit index of the position after the one @p v visits. */
    std::uint64_t
    advance(std::uint64_t v) const
    {
        return advance(v, inv);
    }

    /** Mark visit @p v with @p word. */
    void
    put(std::uint64_t v, std::uint64_t word)
    {
        bits[v >> 6] |= std::uint64_t{1} << (v & 63);
        slots[v] = word;
    }

    /**
     * Put the addresses of @p count positions from @p p0, @p dp
     * apart, whose addresses step by @p step from @p a and go back
     * to @p base on reaching @p end. Of each run of consecutive
     * positions on one line only the first visited is put: a later
     * visit to the line finds it drawn.
     */
    void
    putAffine(std::uint64_t p0, std::uint64_t dp, std::uint64_t count,
              Addr a, Addr step, Addr base, Addr end)
    {
        if (count == 0)
            return;
        std::uint64_t v = visit(p0);
        const std::uint64_t dv = dp % n * inv % n;
        Addr line = a >> 6;
        std::uint64_t first_v = v;
        Addr first_a = a;
        for (std::uint64_t j = 1; j < count; ++j) {
            v = advance(v, dv);
            a += step;
            if (a >= end)
                a = base;
            if ((a >> 6) != line) {
                put(first_v, first_a);
                line = a >> 6;
                first_v = v;
                first_a = a;
                continue;
            }
            const bool earlier = v < first_v;
            first_v = earlier ? v : first_v;
            first_a = earlier ? a : first_a;
        }
        put(first_v, first_a);
    }

    /** Call @p f(word) for each put() word in visit order while it
     *  returns true. */
    template <class F>
    void
    forEach(F f) const
    {
        for (std::size_t w = 0; w < bits.size(); ++w) {
            for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
                const std::size_t v =
                    (w << 6) |
                    static_cast<std::size_t>(std::countr_zero(b));
                if (!f(slots[v]))
                    return;
            }
        }
    }

  private:
    std::uint64_t n;
    std::uint64_t start;
    std::uint64_t inv = 0;
    std::vector<std::uint64_t> &bits;
    std::vector<std::uint64_t> &slots;
};

/** A VisitOrder word with this bit set is not an address but a
 *  position whose address is an RNG draw: the draw's item in its
 *  low 32 bits, a code walk's op offset within its run above. */
constexpr std::uint64_t kDrawnWord = std::uint64_t{1} << 63;

/**
 * Take the words of @p order in visit order and keep each address
 * whose line is not drawn yet, resolving a kDrawnWord word through
 * @p drawn, until @p out holds @p lines addresses or the words run
 * out. @p seen is scratch, reused across calls.
 */
template <class Drawn>
void
keepNewLines(const VisitOrder &order, std::size_t lines,
             std::vector<std::uint64_t> &seen, Drawn drawn,
             std::vector<Addr> &out)
{
    // An open-addressing set of line + 1 words at most half full:
    // at most `lines` lines are kept, so it never grows.
    std::size_t size = 16;
    while (size < 2 * lines)
        size <<= 1;
    seen.assign(size, 0);
    const unsigned shift =
        64 - static_cast<unsigned>(std::countr_zero(size));
    order.forEach([&](std::uint64_t word) {
        const Addr a = word & kDrawnWord ? drawn(word) : word;
        const std::uint64_t key = (a >> 6) + 1;
        std::size_t h = static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ULL) >> shift);
        while (seen[h] != 0 && seen[h] != key)
            h = (h + 1) & (size - 1);
        if (seen[h] == 0) {
            seen[h] = key;
            out.push_back(a);
        }
        return out.size() < lines;
    });
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
    drawData(data_lines, data_rng, data);
    drawCode(code_lines, code_rng, code);
}

void
CodeGenerator::drawData(std::size_t lines, Pcg32 &r,
                        std::vector<Addr> &out)
{
    // A Copy item has two accesses per 16-byte unit, loads at even
    // and stores at odd positions, each side stepping 16 bytes from
    // its cursor and wrapping to its region's base; a Sequential
    // item steps by its stride the same way. A Random, PointerChase
    // or Hot access is the item's own address draw.
    auto positions = [](const WorkItem &item) -> std::uint64_t {
        if (item.kind == WorkItem::Kind::Copy)
            return item.opsLeft / 2;
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(item.opsLeft) *
             item.thrStore) >>
            32);
    };
    std::uint64_t total = 0;
    for (const WorkItem &item : items)
        total += positions(item);
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(total, 0xffffffffULL));
    if (std::min<std::size_t>(lines, n) == 0)
        return;
    VisitOrder order(n, r, drawBits, drawSlots);
    drawItems.clear();
    auto end = [](const Region &region) {
        return region.size ? region.base + region.size : ~Addr{0};
    };
    std::uint64_t p = 0;
    for (const WorkItem &item : items) {
        if (p >= n)
            break;
        const std::uint64_t count =
            std::min<std::uint64_t>(positions(item), n - p);
        if (item.kind == WorkItem::Kind::Copy) {
            order.putAffine(p, 2, (count + 1) / 2, item.srcCursor, 16,
                            item.src.base, end(item.src));
            order.putAffine(p + 1, 2, count / 2, item.dstCursor, 16,
                            item.dst.base, end(item.dst));
        } else if (item.pattern == PatternKind::Sequential) {
            order.putAffine(p, 1, count, item.dataCursor, item.stride,
                            item.data.base, end(item.data));
        } else {
            const std::uint64_t word = kDrawnWord | drawItems.size();
            drawItems.push_back(&item);
            std::uint64_t v = order.visit(p);
            for (std::uint64_t j = 0; j < count; ++j) {
                order.put(v, word);
                v = order.advance(v);
            }
        }
        p += count;
    }
    keepNewLines(
        order, std::min<std::size_t>(lines, n), drawSeen,
        [&](std::uint64_t word) {
            const WorkItem &item =
                *drawItems[static_cast<std::uint32_t>(word)];
            const bool hot = item.pattern == PatternKind::Hot &&
                             r.chanceRaw(kThrHot);
            return item.data.base +
                   64ULL * r.rangeWith(hot ? item.hotDraw
                                           : item.dataDraw);
        },
        out);
}

void
CodeGenerator::drawCode(std::size_t lines, Pcg32 &r,
                        std::vector<Addr> &out)
{
    // One fetch position per 16 ops of each item. Op t of an item's
    // walk runs on from its fetch point for its first blockLeft / 4
    // ops, then blockRunBytes / 4 ops from a drawn block per run,
    // wrapping at the region's end.
    std::uint64_t total = 0;
    for (const WorkItem &item : items)
        total += (item.opsLeft + 15) / 16;
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(total, 0xffffffffULL));
    if (std::min<std::size_t>(lines, n) == 0)
        return;
    VisitOrder order(n, r, drawBits, drawSlots);
    drawItems.clear();
    auto wrap = [](const Region &region, Addr pc) {
        const Addr end = region.base + region.size;
        return pc < end ? pc : region.base + (pc - end) % region.size;
    };
    std::uint64_t p = 0;
    for (const WorkItem &item : items) {
        if (p >= n)
            break;
        const std::uint64_t count =
            std::min<std::uint64_t>((item.opsLeft + 15) / 16, n - p);
        const std::uint64_t first = item.blockLeft / 4;
        const std::uint64_t walked =
            std::min<std::uint64_t>(count, (first + 15) / 16);
        std::uint64_t v = order.visit(p);
        for (std::uint64_t j = 0; j < walked; ++j) {
            order.put(v, wrap(item.profile.code, item.pc + 64 * j));
            v = order.advance(v);
        }
        // A drawn position's word carries its op's offset in its run.
        const std::uint64_t run = item.profile.blockRunBytes / 4;
        const std::uint64_t word = kDrawnWord | drawItems.size();
        drawItems.push_back(&item);
        std::uint64_t offset = run ? (16 * walked - first) % run : 0;
        const std::uint64_t step = run ? 16 % run : 0;
        for (std::uint64_t j = walked; j < count; ++j) {
            order.put(v, word | offset << 32);
            v = order.advance(v);
            offset += step;
            if (offset >= run)
                offset -= run;
        }
        p += count;
    }
    keepNewLines(
        order, std::min<std::size_t>(lines, n), drawSeen,
        [&](std::uint64_t word) {
            const WorkItem &item =
                *drawItems[static_cast<std::uint32_t>(word)];
            const Region &region = item.profile.code;
            return wrap(region, region.base +
                                    64ULL * r.rangeWith(item.pcDraw) +
                                    4 * ((word & ~kDrawnWord) >> 32));
        },
        out);
}

template std::size_t
CodeGenerator::nextBlock<Lowering::Full>(MicroOp *, std::size_t);
template std::size_t
CodeGenerator::nextBlock<Lowering::Lean>(MicroOp *, std::size_t);

} // namespace osp
