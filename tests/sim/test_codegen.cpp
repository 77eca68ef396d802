/** @file Tests for the work-item code generator. */

#include <gtest/gtest.h>

#include <map>
#include <set>
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

} // namespace
} // namespace osp
