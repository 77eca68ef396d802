/** @file Tests for the work-item code generator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "sim/codegen.hh"

namespace osp
{
namespace
{

CodeProfile
basicProfile()
{
    CodeProfile p;
    p.loadFrac = 0.3;
    p.storeFrac = 0.1;
    p.branchFrac = 0.2;
    p.fpFrac = 0.1;
    p.code = Region{0x1000, 8192};
    return p;
}

TEST(CodeGenerator, ExactOpCountForCompute)
{
    CodeGenerator gen(1, 1);
    gen.pushCompute(basicProfile(), 1234, Region{0x8000, 4096});
    EXPECT_EQ(gen.pendingOps(), 1234u);
    std::uint64_t n = 0;
    while (!gen.done()) {
        gen.next();
        ++n;
    }
    EXPECT_EQ(n, 1234u);
}

TEST(CodeGenerator, ExactOpCountForCopy)
{
    CodeGenerator gen(1, 2);
    // 4 ops per 16 bytes.
    gen.pushCopy(basicProfile(), 4096, Region{0x8000, 4096},
                 Region{0x10000, 4096});
    EXPECT_EQ(gen.pendingOps(), 4096u / 16 * 4);
    gen.pushCopy(basicProfile(), 17, Region{0x8000, 4096},
                 Region{0x10000, 4096});
    // ceil(17/16) = 2 units -> 8 more ops.
    EXPECT_EQ(gen.pendingOps(), 4096u / 16 * 4 + 8);
}

TEST(CodeGenerator, ZeroWorkIsNoop)
{
    CodeGenerator gen(1, 3);
    gen.pushCompute(basicProfile(), 0, Region{0x8000, 4096});
    gen.pushCopy(basicProfile(), 0, Region{0x8000, 64},
                 Region{0x9000, 64});
    EXPECT_TRUE(gen.done());
}

TEST(CodeGenerator, NextOnEmptyDies)
{
    CodeGenerator gen(1, 4);
    EXPECT_DEATH(gen.next(), "no work");
}

TEST(CodeGenerator, MixApproximatesProfile)
{
    CodeGenerator gen(7, 5);
    CodeProfile p = basicProfile();
    const std::uint64_t n = 50000;
    gen.pushCompute(p, n, Region{0x8000, 65536});
    std::map<OpClass, std::uint64_t> counts;
    while (!gen.done())
        counts[gen.next().cls] += 1;
    EXPECT_NEAR(counts[OpClass::Load] / double(n), p.loadFrac, 0.01);
    EXPECT_NEAR(counts[OpClass::Store] / double(n), p.storeFrac,
                0.01);
    EXPECT_NEAR(counts[OpClass::Branch] / double(n), p.branchFrac,
                0.01);
    EXPECT_NEAR(counts[OpClass::FpAlu] / double(n), p.fpFrac, 0.01);
}

TEST(CodeGenerator, SameSeedSameStream)
{
    CodeGenerator a(42, 9);
    CodeGenerator b(42, 9);
    a.pushCompute(basicProfile(), 2000, Region{0x8000, 4096});
    b.pushCompute(basicProfile(), 2000, Region{0x8000, 4096});
    while (!a.done()) {
        MicroOp x = a.next();
        MicroOp y = b.next();
        ASSERT_EQ(x.cls, y.cls);
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.effAddr, y.effAddr);
        ASSERT_EQ(x.depDist, y.depDist);
        ASSERT_EQ(x.taken, y.taken);
    }
    EXPECT_TRUE(b.done());
}

TEST(CodeGenerator, PcStaysInCodeRegion)
{
    CodeGenerator gen(3, 6);
    CodeProfile p = basicProfile();
    gen.pushCompute(p, 20000, Region{0x8000, 4096});
    while (!gen.done()) {
        MicroOp op = gen.next();
        ASSERT_GE(op.pc, p.code.base);
        ASSERT_LT(op.pc, p.code.base + p.code.size);
    }
}

TEST(CodeGenerator, DataStaysInRegion)
{
    CodeGenerator gen(3, 7);
    Region data{0x200000, 32768};
    for (auto pat :
         {PatternKind::Sequential, PatternKind::Random,
          PatternKind::PointerChase, PatternKind::Hot}) {
        gen.pushCompute(basicProfile(), 5000, data, pat);
        while (!gen.done()) {
            MicroOp op = gen.next();
            if (op.cls == OpClass::Load ||
                op.cls == OpClass::Store) {
                ASSERT_GE(op.effAddr, data.base);
                ASSERT_LT(op.effAddr, data.base + data.size);
            }
        }
    }
}

TEST(CodeGenerator, SequentialCursorPersistsAcrossItems)
{
    // A streaming workload split into blocks keeps walking forward
    // (regression: art/swim restarted each block and fit in L2).
    CodeGenerator gen(5, 8);
    Region data{0x300000, 1 << 20};
    CodeProfile p = basicProfile();
    std::set<Addr> lines;
    for (int block = 0; block < 10; ++block) {
        gen.pushCompute(p, 5000, data, PatternKind::Sequential);
        while (!gen.done()) {
            MicroOp op = gen.next();
            if (op.cls == OpClass::Load ||
                op.cls == OpClass::Store) {
                lines.insert(op.effAddr >> 6);
            }
        }
    }
    // ~10 * 5000 * 0.4 accesses at 64B stride: far more than one
    // block's worth of distinct lines.
    EXPECT_GT(lines.size(), 10000u);
}

TEST(CodeGenerator, HotPatternConcentratesAccesses)
{
    CodeGenerator gen(11, 10);
    Region data{0x400000, 100 * 64};
    gen.pushCompute(basicProfile(), 30000, data, PatternKind::Hot);
    std::uint64_t hot = 0;
    std::uint64_t total = 0;
    while (!gen.done()) {
        MicroOp op = gen.next();
        if (op.cls == OpClass::Load || op.cls == OpClass::Store) {
            ++total;
            if (op.effAddr < data.base + data.size / 10)
                ++hot;
        }
    }
    // 90% hot + 10% uniform(includes hot): ~91%.
    EXPECT_GT(hot / double(total), 0.85);
}

TEST(CodeGenerator, PointerChaseSerializesLoads)
{
    CodeGenerator gen(13, 11);
    gen.pushCompute(basicProfile(), 10000, Region{0x500000, 65536},
                    PatternKind::PointerChase);
    std::uint64_t dependent_loads = 0;
    std::uint64_t loads = 0;
    while (!gen.done()) {
        MicroOp op = gen.next();
        if (op.cls == OpClass::Load) {
            ++loads;
            dependent_loads += (op.depDist > 0);
        }
    }
    // Every chase load (except possibly the first) carries a
    // dependence on the previous load.
    EXPECT_GT(dependent_loads, loads * 9 / 10);
}

TEST(CodeGenerator, CopyAlternatesLoadStore)
{
    CodeGenerator gen(17, 12);
    Region src{0x600000, 4096};
    Region dst{0x700000, 4096};
    gen.pushCopy(basicProfile(), 256, src, dst);
    std::vector<MicroOp> ops;
    while (!gen.done())
        ops.push_back(gen.next());
    ASSERT_EQ(ops.size(), 64u);  // 16 units * 4
    for (std::size_t i = 0; i < ops.size(); i += 4) {
        EXPECT_EQ(ops[i].cls, OpClass::Load);
        EXPECT_TRUE(src.contains(ops[i].effAddr));
        EXPECT_EQ(ops[i + 1].cls, OpClass::Store);
        EXPECT_TRUE(dst.contains(ops[i + 1].effAddr));
        EXPECT_EQ(ops[i + 1].depDist, 1);
        EXPECT_EQ(ops[i + 2].cls, OpClass::IntAlu);
        EXPECT_EQ(ops[i + 3].cls, OpClass::Branch);
        EXPECT_TRUE(ops[i + 3].taken);
    }
}

TEST(CodeGenerator, ItemsServeInFifoOrder)
{
    CodeGenerator gen(19, 13);
    Region a{0x600000, 4096};
    Region b{0x700000, 4096};
    CodeProfile p = basicProfile();
    p.loadFrac = 1.0;  // every op is a load: addresses identify items
    p.storeFrac = p.branchFrac = p.fpFrac = 0.0;
    gen.pushCompute(p, 10, a);
    gen.pushCompute(p, 10, b);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(a.contains(gen.next().effAddr));
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(b.contains(gen.next().effAddr));
    EXPECT_TRUE(gen.done());
}

/** nextBlock() is the batched spelling of next(): for any block
 *  capacity — including interleaving the two — it must produce the
 *  identical op sequence (same RNG draws, same values, same item
 *  boundaries). This is the contract the Machine's batched run loop
 *  rests on. */
TEST(CodeGenerator, NextBlockMatchesNextExactly)
{
    auto plan = [](CodeGenerator &gen) {
        CodeProfile p = basicProfile();
        gen.pushCompute(p, 500, Region{0x8000, 64 * 1024},
                        PatternKind::Random);
        gen.pushCopy(p, 777, Region{0x8000, 4096},
                     Region{0x20000, 4096});
        gen.pushCompute(p, 301, Region{0x40000, 8192},
                        PatternKind::Hot);
        gen.pushCompute(p, 7, Region{0x50000, 4096},
                        PatternKind::PointerChase);
    };

    CodeGenerator ref(23, 5);
    plan(ref);
    std::vector<MicroOp> want;
    while (!ref.done())
        want.push_back(ref.next());

    for (std::size_t cap : {std::size_t(1), std::size_t(3),
                            std::size_t(7), std::size_t(64)}) {
        CodeGenerator gen(23, 5);
        plan(gen);
        std::vector<MicroOp> got;
        MicroOp buf[64];
        bool interleave = false;
        while (!gen.done()) {
            // Alternate block fetches with single next() calls so
            // the equivalence also holds for mixed use.
            if (interleave && cap > 1) {
                got.push_back(gen.next());
            } else {
                std::size_t n = gen.nextBlock(buf, cap);
                ASSERT_GT(n, 0u);
                got.insert(got.end(), buf, buf + n);
            }
            interleave = !interleave;
        }
        ASSERT_EQ(got.size(), want.size()) << "cap " << cap;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].pc, want[i].pc) << i;
            EXPECT_EQ(got[i].effAddr, want[i].effAddr) << i;
            EXPECT_EQ(got[i].cls, want[i].cls) << i;
            EXPECT_EQ(got[i].depDist, want[i].depDist) << i;
            EXPECT_EQ(got[i].execLat, want[i].execLat) << i;
            EXPECT_EQ(got[i].taken, want[i].taken) << i;
        }
    }
}

/** restart(s, t) is a fresh CodeGenerator(s, t): whatever the
 *  generator did before — tables built, items left pending, sequential
 *  cursors moved, a recent load — the same pushes then yield the same
 *  op stream. The Machine's per-invocation service generator rests on
 *  this. */
TEST(CodeGenerator, RestartMatchesFreshGenerator)
{
    Region seq{0x300000, 1 << 20};
    auto plan = [&](CodeGenerator &gen) {
        CodeProfile p = basicProfile();
        p.depDistMean = 4.0;
        gen.pushCompute(p, 300, Region{0x500000, 65536},
                        PatternKind::PointerChase);
        gen.pushCompute(p, 700, seq, PatternKind::Sequential);
        gen.pushCopy(p, 333, Region{0x8000, 4096},
                     Region{0x20000, 4096});
        p.depDistMean = 2.5;
        gen.pushCompute(p, 500, seq, PatternKind::Sequential);
    };
    auto drain = [](CodeGenerator &gen) {
        std::vector<MicroOp> ops;
        while (!gen.done())
            ops.push_back(gen.next());
        return ops;
    };

    CodeGenerator fresh(29, 6);
    plan(fresh);
    std::vector<MicroOp> want = drain(fresh);

    // Dirty every piece of per-run state: tables for other
    // probabilities (so table indices differ from a fresh
    // generator's), a moved Sequential cursor on the same region,
    // opsSinceLoad set by a just-emitted load, and queued work.
    CodeGenerator gen(3, 99);
    CodeProfile other = basicProfile();
    other.depDistMean = 8.0;
    gen.pushCompute(other, 2000, seq, PatternKind::Sequential);
    gen.pushCopy(other, 160, Region{0x8000, 4096},
                 Region{0x20000, 4096});
    while (!gen.done())
        gen.next();
    CodeProfile loads = basicProfile();
    loads.depDistMean = 6.0;
    loads.loadFrac = 1.0;
    loads.storeFrac = loads.branchFrac = loads.fpFrac = 0.0;
    gen.pushCompute(loads, 50, seq, PatternKind::Sequential);
    gen.pushCompute(other, 400, seq, PatternKind::Random);
    gen.next();
    ASSERT_FALSE(gen.done());

    gen.restart(29, 6);
    EXPECT_TRUE(gen.done());
    plan(gen);
    std::vector<MicroOp> got = drain(gen);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].pc, want[i].pc) << i;
        EXPECT_EQ(got[i].effAddr, want[i].effAddr) << i;
        EXPECT_EQ(got[i].cls, want[i].cls) << i;
        EXPECT_EQ(got[i].depDist, want[i].depDist) << i;
        EXPECT_EQ(got[i].execLat, want[i].execLat) << i;
        EXPECT_EQ(got[i].taken, want[i].taken) << i;
    }
}

/** Lean lowering is Full lowering minus dependences and latencies:
 *  for every access pattern and for copy items, at any block size
 *  and mixed with Full blocks, it yields the same pc/cls/effAddr/
 *  taken stream and leaves the generator where Full would — the
 *  RNG and the pointer-chase load distance alike, so the Full ops
 *  lowered next match field for field. */
TEST(CodeGenerator, LeanLoweringMatchesFull)
{
    auto plan = [](CodeGenerator &gen) {
        CodeProfile p = basicProfile();
        p.depChance = 0.6;
        gen.pushCompute(p, 400, Region{0x8000, 64 * 1024},
                        PatternKind::Sequential, 24);
        gen.pushCompute(p, 333, Region{0x20000, 64 * 1024},
                        PatternKind::Random);
        gen.pushCompute(p, 300, Region{0x40000, 8192},
                        PatternKind::Hot);
        gen.pushCompute(p, 257, Region{0x50000, 4096},
                        PatternKind::PointerChase);
        gen.pushCopy(p, 777, Region{0x8000, 4096},
                     Region{0x60000, 4096});
        // depDistMean <= 1 gives p = 1: the distance takes no draw.
        p.depDistMean = 1.0;
        gen.pushCompute(p, 200, Region{0x70000, 8192},
                        PatternKind::Random);
        p.depDistMean = 3.0;
        p.loadFrac = 0.02;  // long load-free runs
        gen.pushCompute(p, 600, Region{0x80000, 8192},
                        PatternKind::PointerChase);
    };
    // Runs after the plan; its Full ops expose the generator state
    // (RNG draws, pointer-chase distance) the plan left behind.
    auto tail = [](CodeGenerator &gen) {
        CodeProfile p = basicProfile();
        gen.pushCompute(p, 300, Region{0x90000, 8192},
                        PatternKind::PointerChase);
        gen.pushCompute(p, 300, Region{0xa0000, 8192},
                        PatternKind::Random);
    };
    auto drain = [](CodeGenerator &gen, std::size_t cap,
                    bool lean_only) {
        std::vector<MicroOp> ops;
        MicroOp buf[64];
        bool lean = true;
        while (!gen.done()) {
            std::size_t n =
                lean ? gen.nextBlock<Lowering::Lean>(buf, cap)
                     : gen.nextBlock(buf, cap);
            ops.insert(ops.end(), buf, buf + n);
            lean = lean_only || !lean;
        }
        return ops;
    };

    CodeGenerator ref(41, 8);
    plan(ref);
    std::vector<MicroOp> want;
    MicroOp one[1];
    while (ref.nextBlock(one, 1))
        want.push_back(one[0]);
    tail(ref);
    std::vector<MicroOp> want_tail;
    while (ref.nextBlock(one, 1))
        want_tail.push_back(one[0]);

    for (bool lean_only : {true, false}) {
        for (std::size_t cap : {std::size_t(1), std::size_t(5),
                                std::size_t(64)}) {
            CodeGenerator gen(41, 8);
            plan(gen);
            std::vector<MicroOp> got = drain(gen, cap, lean_only);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < want.size(); ++i) {
                ASSERT_EQ(got[i].pc, want[i].pc) << i;
                ASSERT_EQ(got[i].cls, want[i].cls) << i;
                ASSERT_EQ(got[i].effAddr, want[i].effAddr) << i;
                ASSERT_EQ(got[i].taken, want[i].taken) << i;
            }
            tail(gen);
            std::vector<MicroOp> got_tail;
            while (gen.nextBlock(one, 1))
                got_tail.push_back(one[0]);
            ASSERT_EQ(got_tail.size(), want_tail.size());
            for (std::size_t i = 0; i < want_tail.size(); ++i) {
                EXPECT_EQ(got_tail[i].pc, want_tail[i].pc) << i;
                EXPECT_EQ(got_tail[i].effAddr, want_tail[i].effAddr)
                    << i;
                EXPECT_EQ(got_tail[i].cls, want_tail[i].cls) << i;
                EXPECT_EQ(got_tail[i].depDist, want_tail[i].depDist)
                    << "cap " << cap << " op " << i;
                EXPECT_EQ(got_tail[i].execLat, want_tail[i].execLat)
                    << i;
                EXPECT_EQ(got_tail[i].taken, want_tail[i].taken) << i;
            }
        }
    }
}

/** drawFootprint() draws what the lowered stream would have touched,
 *  without lowering: for every access pattern and for copies, the
 *  drawn lines are distinct; Sequential and Copy draws are lines the
 *  Lean-lowered stream of the same plan touches; asking for every
 *  line yields the copy's lines exactly and about as many lines of
 *  each other item as the stream touches; the first line drawn falls
 *  on each item with its share of the stream's accesses (and of its
 *  ops, for fetch lines) within a binomial bound; a shorter draw is
 *  a prefix of a longer one; and the draw leaves the stream that
 *  follows unchanged. */
TEST(CodeGenerator, FootprintDrawMatchesLoweredStream)
{
    struct Item
    {
        PatternKind pattern;  //!< unused for the copy
        bool copy;
        std::uint64_t ops;    //!< bytes for the copy
        Region data;          //!< the copy's source
        Region dst;
        std::uint32_t stride;
    };
    const std::vector<Item> items = {
        // 64 lines walked about twelve times: every line repeats.
        {PatternKind::Sequential, false, 2000, {0x1000000, 4096}, {}, 64},
        // One partial walk of a large region at a sub-line stride.
        {PatternKind::Sequential, false, 1500, {0x2000000, 1 << 20}, {},
         24},
        {PatternKind::Random, false, 1200, {0x3000000, 65536}, {}, 64},
        {PatternKind::PointerChase, false, 900, {0x4000000, 65536}, {},
         64},
        {PatternKind::Hot, false, 1100, {0x5000000, 65536}, {}, 64},
        // 375 units over a 256-unit source: the source wraps.
        {PatternKind::Sequential, true, 6000, {0x6000000, 4096},
         {0x7000000, 8192}, 0},
    };
    auto codeOf = [](std::size_t i) {
        return Region{0x100000 + 0x10000 * i, 8192};
    };
    auto plan = [&](CodeGenerator &gen) {
        for (std::size_t i = 0; i < items.size(); ++i) {
            CodeProfile p = basicProfile();
            p.code = codeOf(i);
            const Item &it = items[i];
            if (it.copy)
                gen.pushCopy(p, it.ops, it.data, it.dst);
            else
                gen.pushCompute(p, it.ops, it.data, it.pattern,
                                it.stride);
        }
    };
    auto itemOfData = [&](Addr a) {
        for (std::size_t i = 0; i < items.size(); ++i)
            if (items[i].data.contains(a) ||
                (items[i].copy && items[i].dst.contains(a)))
                return i;
        return items.size();
    };
    auto itemOfCode = [&](Addr pc) {
        for (std::size_t i = 0; i < items.size(); ++i)
            if (codeOf(i).contains(pc))
                return i;
        return items.size();
    };
    auto lower = [](CodeGenerator &gen) {
        std::vector<MicroOp> ops;
        MicroOp buf[64];
        while (std::size_t n = gen.nextBlock<Lowering::Lean>(buf, 64))
            ops.insert(ops.end(), buf, buf + n);
        return ops;
    };
    auto distinctLines = [](const std::vector<Addr> &v) {
        std::set<Addr> lines;
        for (Addr a : v)
            lines.insert(a >> 6);
        return lines.size() == v.size();
    };

    CodeGenerator ref(77, 5);
    plan(ref);
    const std::vector<MicroOp> stream = lower(ref);
    std::vector<std::uint64_t> accesses(items.size(), 0);
    std::vector<std::uint64_t> opsOf(items.size(), 0);
    std::vector<std::set<Addr>> touched(items.size());
    for (const MicroOp &op : stream) {
        ++opsOf[itemOfCode(op.pc)];
        if (op.cls != OpClass::Load && op.cls != OpClass::Store)
            continue;
        std::size_t i = itemOfData(op.effAddr);
        ASSERT_LT(i, items.size());
        ++accesses[i];
        touched[i].insert(op.effAddr >> 6);
    }

    CodeGenerator gen(77, 5);
    plan(gen);
    std::vector<Addr> data, code;
    constexpr std::size_t kData = 600, kCode = 200;
    gen.drawFootprint(kData, kCode, data, code);
    ASSERT_EQ(data.size(), kData);
    ASSERT_EQ(code.size(), kCode);
    EXPECT_TRUE(distinctLines(data));
    EXPECT_TRUE(distinctLines(code));

    // The draw leaves the plan and the RNG alone.
    const std::vector<MicroOp> after = lower(gen);
    ASSERT_EQ(after.size(), stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        ASSERT_EQ(after[i].pc, stream[i].pc) << i;
        ASSERT_EQ(after[i].effAddr, stream[i].effAddr) << i;
        ASSERT_EQ(after[i].cls, stream[i].cls) << i;
    }

    // A Compute item's positions are its expected access count, so
    // a partial Sequential walk may also be drawn up to that count,
    // past where this stream's realized count stopped.
    const std::uint64_t expected1 =
        (items[1].ops * Pcg32::rawThreshold(0.3 + 0.1)) >> 32;
    auto checkData = [&](const std::vector<Addr> &drawn_data,
                         std::vector<std::set<Addr>> &lines) {
        lines.assign(items.size(), {});
        for (Addr a : drawn_data) {
            std::size_t i = itemOfData(a);
            ASSERT_LT(i, items.size()) << std::hex << a;
            lines[i].insert(a >> 6);
            const Item &it = items[i];
            if (!it.copy && it.pattern != PatternKind::Sequential) {
                EXPECT_EQ(a % 64, 0u);
                continue;
            }
            if (touched[i].count(a >> 6))
                continue;
            ASSERT_EQ(i, 1u) << std::hex << a;
            const std::uint64_t off = a - it.data.base;
            EXPECT_EQ(off % it.stride, 0u);
            EXPECT_GE(off / it.stride, accesses[1]);
            EXPECT_LT(off / it.stride, expected1);
        }
    };
    std::vector<std::set<Addr>> lines;
    checkData(data, lines);
    for (Addr pc : code)
        ASSERT_LT(itemOfCode(pc), items.size()) << std::hex << pc;

    // Prefix-consistent and a pure function of (seed, stream, plan).
    CodeGenerator other(3, 3);
    other.restart(77, 5);
    plan(other);
    std::vector<Addr> short_data, short_code;
    other.drawFootprint(100, 30, short_data, short_code);
    ASSERT_EQ(short_data.size(), 100u);
    ASSERT_EQ(short_code.size(), 30u);
    EXPECT_TRUE(std::equal(short_data.begin(), short_data.end(),
                           data.begin()));
    EXPECT_TRUE(std::equal(short_code.begin(), short_code.end(),
                           code.begin()));

    // Asking for more than the plan holds visits every position: the
    // copy, whose count is exact, yields exactly its lines, and each
    // other item about as many lines as the stream touches (item 0's
    // 64 and, for the draws, the same share of a region's lines).
    other.drawFootprint(1 << 20, 1 << 20, data, code);
    EXPECT_TRUE(distinctLines(data));
    EXPECT_TRUE(distinctLines(code));
    checkData(data, lines);
    EXPECT_EQ(lines[5], touched[5]);
    EXPECT_EQ(lines[0], touched[0]);
    for (std::size_t i : {2u, 3u, 4u})
        EXPECT_NEAR(static_cast<double>(lines[i].size()),
                    static_cast<double>(touched[i].size()),
                    0.1 * static_cast<double>(touched[i].size()))
            << "item " << i;

    // The first line drawn stands for a uniform access (and fetch
    // position), so over independent plans it falls on each item
    // with that item's share of them.
    constexpr std::uint64_t kPlans = 3000;
    std::vector<std::uint64_t> first_data(items.size(), 0);
    std::vector<std::uint64_t> first_code(items.size(), 0);
    std::uint64_t hot_first = 0;
    for (std::uint64_t s = 0; s < kPlans; ++s) {
        other.restart(1000 + s, 5);
        plan(other);
        other.drawFootprint(1, 1, data, code);
        ASSERT_EQ(data.size(), 1u);
        ASSERT_EQ(code.size(), 1u);
        std::size_t i = itemOfData(data[0]);
        ASSERT_LT(i, items.size());
        ++first_data[i];
        if (i == 4 &&
            data[0] < items[4].data.base + items[4].data.size / 10)
            ++hot_first;
        std::size_t c = itemOfCode(code[0]);
        ASSERT_LT(c, items.size());
        ++first_code[c];
    }
    // 90% of a Hot item's accesses fall in its first tenth.
    EXPECT_GT(hot_first, first_data[4] * 8 / 10);

    auto withinBinomial = [](const std::vector<std::uint64_t> &got,
                             const std::vector<std::uint64_t> &weight,
                             std::uint64_t k, const char *what) {
        std::uint64_t total = 0;
        for (std::uint64_t w : weight)
            total += w;
        for (std::size_t i = 0; i < got.size(); ++i) {
            double p = static_cast<double>(weight[i]) / total;
            double mean = p * k;
            double bound = 4.0 * std::sqrt(k * p * (1 - p)) + 1.0;
            EXPECT_NEAR(static_cast<double>(got[i]), mean, bound)
                << what << " item " << i;
        }
    };
    withinBinomial(first_data, accesses, kPlans, "data");
    withinBinomial(first_code, opsOf, kPlans, "code");
}

/** FNV-1a over a footprint's sizes and addresses. */
std::uint64_t
footprintHash(const std::vector<Addr> &data,
              const std::vector<Addr> &code)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x100000001b3ULL;
    };
    mix(data.size());
    for (Addr a : data)
        mix(a);
    mix(code.size());
    for (Addr a : code)
        mix(a);
    return h;
}

/**
 * Queue a seeded plan of 1 to 6 items with about @p scale ops each:
 * every PatternKind and copies, strides below, at and above a line,
 * small regions that wrap (a copy's source or destination, a
 * Sequential walk) and large ones that do not, and block runs of
 * several lengths. Odd seeds then lower a prefix of the plan, so the
 * draw starts from cursors, fetch points and a copy phase mid-way.
 */
void
pushSeededPlan(CodeGenerator &gen, std::uint64_t seed,
               std::uint64_t scale)
{
    Pcg32 r(seed, 99);
    const PatternKind kinds[] = {
        PatternKind::Sequential, PatternKind::Random,
        PatternKind::PointerChase, PatternKind::Hot};
    const std::uint64_t sizes[] = {64, 1000, 4096, 16384, 1 << 20,
                                   64 << 20};
    const std::uint32_t runs[] = {128, 512, 2048, 288};
    const std::uint32_t strides[] = {8, 24, 64, 200};
    const std::uint32_t items = 1 + r.range(6);
    for (std::uint32_t i = 0; i < items; ++i) {
        CodeProfile p = basicProfile();
        p.code = Region{0xc0000000ULL + 0x100000ULL * r.range(16),
                        4096ULL << r.range(5)};
        p.blockRunBytes = runs[r.range(4)];
        const std::uint64_t ops = 1 + r.range(
            static_cast<std::uint32_t>(2 * scale));
        const Region data{0x10000000ULL * (1 + r.range(8)) +
                              8ULL * r.range(1024),
                          sizes[r.range(6)]};
        if (r.range(3) == 0) {
            const Region dst{0x90000000ULL + 16ULL * r.range(4096),
                             sizes[r.range(6)]};
            gen.pushCopy(p, 4 * ops, data, dst);
        } else {
            gen.pushCompute(p, ops, data, kinds[r.range(4)],
                            strides[r.range(4)]);
        }
    }
    if (seed & 1) {
        MicroOp buf[64];
        std::uint64_t skip = r.range(
            static_cast<std::uint32_t>(gen.pendingOps()));
        while (skip) {
            const std::size_t n = gen.nextBlock<Lowering::Lean>(
                buf, static_cast<std::size_t>(
                         std::min<std::uint64_t>(skip, 64)));
            skip -= n;
        }
    }
}

/** The footprint a plan yields is pinned, as recorded before the
 *  draw's item lookup, address arithmetic and line set were
 *  rewritten: seeded plans over every PatternKind, copies that wrap,
 *  partly lowered plans and plans of 1 to over 64k data positions,
 *  drawn at small, cap-sized and exhaustive line counts. */
TEST(CodeGenerator, FootprintDrawIsPinned)
{
    struct Case
    {
        std::uint64_t seed, scale;
        std::size_t dataLines, codeLines;
        std::uint64_t hash;
    };
    const Case cases[] = {
        {0, 1, 1 << 20, 1 << 20, 16937946555013596103ULL},
        {1, 2, 4, 4, 5893653487864030747ULL},
        {2, 8, 1 << 20, 1 << 20, 899536231662657545ULL},
        {3, 40, 16, 8, 12764642050320352168ULL},
        {4, 300, 2048, 512, 11953887743504469322ULL},
        {5, 300, 1 << 20, 1 << 20, 7199137321776526923ULL},
        {6, 2000, 256, 64, 2530128251368636277ULL},
        {7, 2000, 2048, 512, 7779456131767247386ULL},
        {8, 5000, 1 << 20, 1 << 20, 3604441608548072750ULL},
        {9, 20000, 2048, 512, 3466653421284742901ULL},
        {10, 40000, 1 << 20, 1 << 20, 3031138359774284086ULL},
        {11, 100000, 2048, 512, 9145019245640819725ULL},
        {12, 100000, 1 << 20, 1 << 20, 2151827542347298221ULL},
        {13, 400000, 1 << 20, 1 << 20, 4900325432116011121ULL},
    };
    std::vector<Addr> data, code;
    CodeGenerator gen(1, 1);
    for (const Case &c : cases) {
        gen.restart(0xF00D + c.seed, 3);
        pushSeededPlan(gen, c.seed, c.scale);
        gen.drawFootprint(c.dataLines, c.codeLines, data, code);
        EXPECT_EQ(footprintHash(data, code), c.hash)
            << "seed " << c.seed << ": " << data.size() << " data, "
            << code.size() << " code lines";
    }

    // Copies that lap their regions many times, from cursors a
    // partial lowering left mid-region: an 80KB copy out of a 16KB
    // window into a 4KB buffer, next to a Sequential walk that laps
    // its 4KB region.
    const std::pair<std::size_t, std::uint64_t> laps[] = {
        {64, 8301265254638857521ULL},
        {300, 14928002202515020205ULL},
        {1 << 20, 817764794683558463ULL},
    };
    for (const auto &[lines, hash] : laps) {
        gen.restart(0xF00D, 4);
        CodeProfile p = basicProfile();
        gen.pushCompute(p, 5000, Region{0x20000000ULL, 4096},
                        PatternKind::Sequential, 24);
        gen.pushCopy(p, 80 * 1024, Region{0x30000000ULL, 16 * 1024},
                     Region{0x40000100ULL, 4096});
        gen.pushCompute(p, 300, Region{0x50000000ULL, 1 << 20},
                        PatternKind::Hot);
        MicroOp buf[64];
        for (std::uint64_t skip = 5000 + 777; skip;)
            skip -= gen.nextBlock<Lowering::Lean>(
                buf, static_cast<std::size_t>(
                         std::min<std::uint64_t>(skip, 64)));
        gen.drawFootprint(lines, lines, data, code);
        EXPECT_EQ(footprintHash(data, code), hash)
            << lines << " lines: " << data.size() << " data, "
            << code.size() << " code lines";
    }
}

} // namespace

/**
 * The golden walk drawFootprint() replaced, kept here as the
 * reference it must match: positions visited one at a time in
 * golden order, each mapped to its item through a bucket index and
 * to its address, and each address whose line is new kept, until
 * the lines asked for are drawn.
 */
struct CodeGeneratorTestPeer
{
    using WorkItem = CodeGenerator::WorkItem;

    static std::uint64_t
    dataPositions(const CodeGenerator &gen)
    {
        std::uint64_t n = 0;
        for (const WorkItem &item : gen.items)
            n += dataCount(item);
        return n;
    }

    static void
    drawFootprint(const CodeGenerator &gen, std::size_t data_lines,
                  std::size_t code_lines, std::vector<Addr> &data,
                  std::vector<Addr> &code)
    {
        data.clear();
        code.clear();
        Pcg32 fork = gen.rng;
        Pcg32 data_rng(fork.next64(), 0xF007D47AULL);
        Pcg32 code_rng(fork.next64(), 0xF007C0DEULL);
        drawLines(gen.items, data_lines, data_rng, dataCount,
                  [&](const WorkItem &item, std::uint64_t p) {
                      return footprintData(item, p, data_rng);
                  },
                  data);
        drawLines(gen.items, code_lines, code_rng,
                  [](const WorkItem &item) -> std::uint64_t {
                      return (item.opsLeft + 15) / 16;
                  },
                  [&](const WorkItem &item, std::uint64_t p) {
                      return footprintCode(item, 16 * p, code_rng);
                  },
                  code);
    }

  private:
    static std::uint64_t
    dataCount(const WorkItem &item)
    {
        if (item.kind == WorkItem::Kind::Copy)
            return item.opsLeft / 2;
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(item.opsLeft) *
             item.thrStore) >>
            32);
    }

    class GoldenOrder
    {
      public:
        GoldenOrder(std::uint32_t n, Pcg32 &rng)
            : n(n), cur(rng.range(n))
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

    template <class Count, class At>
    static void
    drawLines(const std::deque<WorkItem> &items, std::size_t lines,
              Pcg32 &rng, Count count, At at, std::vector<Addr> &out)
    {
        std::vector<std::uint64_t> ends;
        std::uint64_t total = 0;
        for (const auto &item : items)
            ends.push_back(total += count(item));
        const auto n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(total, 0xffffffffULL));
        const std::size_t k = std::min<std::size_t>(lines, n);
        if (k == 0)
            return;
        std::vector<std::uint32_t> buckets(
            (static_cast<std::size_t>(n) + 63) >> 6);
        std::uint32_t idx = 0;
        for (std::size_t b = 0; b < buckets.size(); ++b) {
            while (ends[idx] <= (std::uint64_t{b} << 6))
                ++idx;
            buckets[b] = idx;
        }
        std::set<Addr> seen;
        GoldenOrder order(n, rng);
        for (std::uint32_t drawn = 0; drawn < n && out.size() < k;
             ++drawn) {
            const std::uint32_t pos = order.next();
            idx = buckets[pos >> 6];
            while (ends[idx] <= pos)
                ++idx;
            const Addr a =
                at(items[idx], pos - (idx ? ends[idx - 1] : 0));
            if (seen.insert(a >> 6).second)
                out.push_back(a);
        }
    }

    static Addr
    footprintData(const WorkItem &item, std::uint64_t p, Pcg32 &r)
    {
        if (item.kind == WorkItem::Kind::Copy) {
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
                   64ULL * r.rangeWith(
                               r.chanceRaw(Pcg32::rawThreshold(0.9))
                                   ? item.hotDraw
                                   : item.dataDraw);
        }
        return region.base;
    }

    static Addr
    footprintCode(const WorkItem &item, std::uint64_t t, Pcg32 &r)
    {
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
};

namespace
{

/**
 * Queue a seeded plan of 1 to 7 items over a 16KB window of shared,
 * unaligned region bases, so copies, Sequential walks and drawn
 * accesses land on each other's lines: copies whose source or
 * destination laps, Sequential walks at strides 4, 16, 64 and 200,
 * and Random, Hot and PointerChase items, with code regions small
 * enough for a walk to wrap and block runs of 8 bytes to 2KB. Most
 * plans are small; one in forty has 70k to 170k ops per item. Some
 * first complete a Sequential walk over a base the plan reuses, so
 * its walk starts mid-region, and half lower a prefix of the plan.
 */
void
pushMixedPlan(CodeGenerator &gen, std::uint64_t seed)
{
    Pcg32 r(seed, 17);
    const std::uint64_t sizes[] = {16, 40, 64, 100, 1000, 4096, 16384,
                                   1 << 20};
    const std::uint32_t strides[] = {4, 16, 64, 200};
    const std::uint32_t runs[] = {8, 36, 128, 288, 2048};
    auto region = [&] {
        return Region{0x40000000ULL + 24ULL * r.range(640),
                      sizes[r.range(8)]};
    };
    auto profile = [&] {
        CodeProfile p = basicProfile();
        p.loadFrac = 0.05 * (1 + r.range(8));
        p.storeFrac = 0.05 * r.range(4);
        p.code = Region{0xc0000000ULL + 0x10000ULL * r.range(4),
                        64ULL << r.range(7)};
        p.blockRunBytes = runs[r.range(5)];
        return p;
    };
    const std::uint64_t scale = r.range(40) == 0
                                    ? 70000 + r.range(100000)
                                    : 1 + r.range(3000);
    MicroOp buf[64];
    auto lower = [&](std::uint64_t ops) {
        while (ops)
            ops -= gen.nextBlock<Lowering::Lean>(
                buf, static_cast<std::size_t>(
                         std::min<std::uint64_t>(ops, 64)));
    };
    if (r.range(4) == 0) {
        const CodeProfile p = profile();
        const std::uint64_t ops = 1 + r.range(400);
        const Region data = region();
        const std::uint32_t stride = strides[r.range(4)];
        gen.pushCompute(p, ops, data, PatternKind::Sequential, stride);
        lower(gen.pendingOps());
    }
    // One draw per statement: the order in which a call's
    // arguments are evaluated is up to the compiler.
    const std::uint32_t items = 1 + r.range(7);
    for (std::uint32_t i = 0; i < items; ++i) {
        const std::uint32_t kind = r.range(6);
        const CodeProfile p = profile();
        const Region data = region();
        if (kind < 2) {
            const Region dst = region();
            const std::uint64_t bytes = 1 + r.range(
                static_cast<std::uint32_t>(8 * scale));
            gen.pushCopy(p, bytes, data, dst);
            continue;
        }
        const std::uint64_t ops = 1 + r.range(
            static_cast<std::uint32_t>(2 * scale));
        if (kind == 2) {
            const std::uint32_t stride = strides[r.range(4)];
            gen.pushCompute(p, ops, data, PatternKind::Sequential,
                            stride);
        } else {
            const PatternKind drawn[] = {PatternKind::Random,
                                         PatternKind::Hot,
                                         PatternKind::PointerChase};
            gen.pushCompute(p, ops, data, drawn[kind - 3]);
        }
    }
    if (r.range(2))
        lower(r.range(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(gen.pendingOps(), 0xffffffffULL))));
}

/** drawFootprint() returns what the golden walk it replaced returns,
 *  over 1200 seeded pushMixedPlan() plans of 1 to over 64k data
 *  positions, each drawn at no lines, one, a few, the machine's caps
 *  and every line. */
TEST(CodeGenerator, FootprintDrawMatchesReferenceWalk)
{
    CodeGenerator gen(1, 1);
    std::vector<Addr> data, code, want_data, want_code;
    std::uint64_t fewest = ~std::uint64_t(0), most = 0;
    for (std::uint64_t seed = 0; seed < 1200; ++seed) {
        gen.restart(0xD1FF + seed, seed % 5);
        pushMixedPlan(gen, seed);
        const std::uint64_t positions =
            CodeGeneratorTestPeer::dataPositions(gen);
        fewest = std::min(fewest, positions);
        most = std::max(most, positions);
        const std::pair<std::size_t, std::size_t> counts[] = {
            {0, 0}, {1, 1}, {1 + seed % 61, 1 + seed % 13},
            {2048, 512}, {std::size_t{1} << 30, std::size_t{1} << 30}};
        for (const auto &[data_lines, code_lines] :
             {counts[seed % 5], counts[4]}) {
            gen.drawFootprint(data_lines, code_lines, data, code);
            CodeGeneratorTestPeer::drawFootprint(
                gen, data_lines, code_lines, want_data, want_code);
            ASSERT_EQ(data, want_data)
                << "seed " << seed << ", " << data_lines << " lines";
            ASSERT_EQ(code, want_code)
                << "seed " << seed << ", " << code_lines << " lines";
        }
    }
    EXPECT_LE(fewest, 1u);
    EXPECT_GT(most, 65536u);
}

} // namespace
} // namespace osp
