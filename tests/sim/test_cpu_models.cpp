/** @file Tests for the in-order and out-of-order timing models. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/inorder_cpu.hh"
#include "sim/ooo_cpu.hh"
#include "util/random.hh"

namespace osp
{
namespace
{

MicroOp
alu(Addr pc = 0x1000)
{
    MicroOp op;
    op.cls = OpClass::IntAlu;
    op.pc = pc;
    op.execLat = 1;
    return op;
}

MicroOp
load(Addr addr, Addr pc = 0x1000, std::uint8_t dep = 0)
{
    MicroOp op;
    op.cls = OpClass::Load;
    op.pc = pc;
    op.effAddr = addr;
    op.depDist = dep;
    return op;
}

MicroOp
branch(bool taken, Addr pc = 0x1000)
{
    MicroOp op;
    op.cls = OpClass::Branch;
    op.pc = pc;
    op.taken = taken;
    op.execLat = 1;
    return op;
}

TEST(InOrderCpu, OneIpcWithoutMemory)
{
    CpuParams params;
    InOrderCpu cpu(params, nullptr, nullptr);
    for (int i = 0; i < 1000; ++i)
        cpu.execute(alu(), Owner::App);
    EXPECT_EQ(cpu.drain(), 1000u);
}

TEST(InOrderCpu, LoadsAddFlatLatencyWithoutCaches)
{
    CpuParams params;
    params.noCacheMemLatency = 5;
    InOrderCpu cpu(params, nullptr, nullptr);
    for (int i = 0; i < 100; ++i)
        cpu.execute(load(0x2000), Owner::App);
    // Each load costs the flat latency (1 base + lat-1 stall).
    EXPECT_EQ(cpu.drain(), 100u * 5);
}

TEST(InOrderCpu, MispredictPenaltyApplied)
{
    CpuParams params;
    GshareBp bp(12);
    InOrderCpu cpu(params, nullptr, &bp);
    // Train taken.
    for (int i = 0; i < 500; ++i)
        cpu.execute(branch(true, 0x3000), Owner::App);
    Cycles base = cpu.drain();
    // 500 cycles base cost plus a handful of warm-up mispredicts.
    EXPECT_LT(base, 800u);
    // Now flip direction: mispredicts until re-trained.
    cpu.execute(branch(false, 0x3000), Owner::App);
    Cycles flipped = cpu.drain();
    EXPECT_GE(flipped, 1 + params.mispredictPenalty);
}

TEST(InOrderCpu, FpLatency)
{
    CpuParams params;
    InOrderCpu cpu(params, nullptr, nullptr);
    MicroOp op;
    op.cls = OpClass::FpAlu;
    op.execLat = 4;
    for (int i = 0; i < 10; ++i)
        cpu.execute(op, Owner::App);
    EXPECT_EQ(cpu.drain(), 40u);
}

TEST(InOrderCpu, DrainResetsIntervalNotClock)
{
    CpuParams params;
    InOrderCpu cpu(params, nullptr, nullptr);
    cpu.execute(alu(), Owner::App);
    EXPECT_EQ(cpu.drain(), 1u);
    cpu.execute(alu(), Owner::App);
    cpu.execute(alu(), Owner::App);
    EXPECT_EQ(cpu.drain(), 2u);
    EXPECT_EQ(cpu.now(), 3u);
}

TEST(OooCpu, IlpBeatsInOrderOnIndependentOps)
{
    CpuParams params;
    OooCpu ooo(params, nullptr, nullptr);
    InOrderCpu inorder(params, nullptr, nullptr);
    for (int i = 0; i < 3000; ++i) {
        ooo.execute(alu(), Owner::App);
        inorder.execute(alu(), Owner::App);
    }
    Cycles ooo_cycles = ooo.drain();
    Cycles inorder_cycles = inorder.drain();
    // Retire width 3 bounds OOO IPC at 3.
    EXPECT_LT(ooo_cycles, inorder_cycles);
    EXPECT_GE(ooo_cycles, 3000u / params.retireWidth);
    EXPECT_LE(ooo_cycles, 3000u / params.retireWidth + 10);
}

TEST(OooCpu, SerialDependenceChainsLimitIlp)
{
    CpuParams params;
    OooCpu cpu(params, nullptr, nullptr);
    for (int i = 0; i < 1000; ++i) {
        MicroOp op = alu();
        op.depDist = 1;  // strict chain
        cpu.execute(op, Owner::App);
    }
    // Each op waits for its predecessor: ~1 IPC.
    EXPECT_GE(cpu.drain(), 999u);
}

TEST(OooCpu, MemoryLevelParallelism)
{
    // Independent loads overlap up to the MSHR count; dependent
    // loads serialize. Same flat latency, very different cycles.
    CpuParams params;
    params.noCacheMemLatency = 2;
    OooCpu independent(params, nullptr, nullptr);
    OooCpu chained(params, nullptr, nullptr);
    for (int i = 0; i < 1000; ++i) {
        independent.execute(load(0x1000 + 64 * i), Owner::App);
        chained.execute(load(0x1000 + 64 * i, 0x1000, 1),
                        Owner::App);
    }
    EXPECT_LT(independent.drain() * 2, chained.drain());
}

TEST(OooCpu, MispredictRedirectsFetch)
{
    CpuParams params;
    GshareBp trained(12);
    OooCpu cpu(params, nullptr, &trained);
    for (int i = 0; i < 2000; ++i)
        cpu.execute(branch(true, 0x5000), Owner::App);
    Cycles steady = cpu.drain();
    // A surprise direction costs the penalty on the next fetch.
    cpu.execute(branch(false, 0x5000), Owner::App);
    cpu.execute(alu(), Owner::App);
    Cycles after = cpu.drain();
    EXPECT_GE(after, params.mispredictPenalty);
    EXPECT_LT(steady, 2000u);
}

TEST(OooCpu, WindowOccupancyStallsFetch)
{
    // One very long-latency load at the head plus window-filling
    // ALU ops: fetch stalls when the window is full, so total time
    // is bounded below by the load latency.
    CpuParams params;
    params.noCacheMemLatency = 500;
    params.windowSize = 16;
    OooCpu cpu(params, nullptr, nullptr);
    cpu.execute(load(0x100, 0x1000, 1), Owner::App);  // slow-ish
    MicroOp dependent = load(0x200, 0x1004, 1);
    cpu.execute(dependent, Owner::App);  // depends on the first
    for (int i = 0; i < 100; ++i)
        cpu.execute(alu(), Owner::App);
    EXPECT_GE(cpu.drain(), 1000u);
}

TEST(OooCpu, DrainSerializesIntervals)
{
    CpuParams params;
    OooCpu cpu(params, nullptr, nullptr);
    for (int i = 0; i < 300; ++i)
        cpu.execute(alu(), Owner::App);
    Cycles first = cpu.drain();
    for (int i = 0; i < 300; ++i)
        cpu.execute(alu(), Owner::App);
    Cycles second = cpu.drain();
    // Same work, same serialized start: equal interval costs.
    EXPECT_EQ(first, second);
    EXPECT_EQ(cpu.now(), first + second);
}

TEST(OooCpu, BadParamsDie)
{
    CpuParams params;
    params.windowSize = 0;
    EXPECT_DEATH(OooCpu(params, nullptr, nullptr), "window");
}

TEST(OooCpu, CacheMissesRaiseCycles)
{
    HierarchyParams hp;
    MemoryHierarchy warm_h(hp);
    MemoryHierarchy cold_h(hp);
    CpuParams params;
    OooCpu warm(params, &warm_h, nullptr);
    OooCpu cold(params, &cold_h, nullptr);

    // Warm machine: repeatedly touch one line. Cold machine:
    // streaming loads.
    for (int i = 0; i < 2000; ++i) {
        warm.execute(load(0x8000, 0x1000, 1), Owner::App);
        cold.execute(load(0x8000 + 64 * i, 0x1000, 1), Owner::App);
    }
    EXPECT_LT(warm.drain() * 5, cold.drain());
}

TEST(InOrderCpu, StoreMissesBoundedByWriteBuffer)
{
    // Regression: store misses must not reserve unbounded bus
    // occupancy (the art/swim divergence). A long store-miss
    // stream should cost roughly (bus occupancy per line) per
    // store, not quadratic time.
    HierarchyParams hp;
    hp.l2.sizeBytes = 64 * 1024;
    MemoryHierarchy h(hp);
    CpuParams params;
    InOrderCpu cpu(params, &h, nullptr);
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        MicroOp op;
        op.cls = OpClass::Store;
        op.pc = 0x1000;
        op.effAddr = 0x100000 + 64ULL * i;
        cpu.execute(op, Owner::App);
    }
    Cycles cycles = cpu.drain();
    // All miss; the bus serializes ~40 cycles per line + writeback.
    EXPECT_LT(cycles, static_cast<Cycles>(n) * 200);
    EXPECT_GT(cycles, static_cast<Cycles>(n) * 10);
}

/** Cycle total and hierarchy counters of one golden-stream run. */
struct GoldenRun
{
    Cycles cycles = 0;
    HierarchyCounts counts;
};

/**
 * Drive @p cpu with a fixed Pcg32 stream of hand-made ops: every
 * class, dependence distances up to 255 (past the 126-entry window),
 * code past the L1I and data past the L2 (TLB misses, dirty
 * writebacks), both owners. Drains every 997 ops and replaces the
 * core with a fresh one once midway (caches and predictor stay
 * warm); the result is the sum of the drained cycles. Integer
 * arithmetic only, so the pins hold on every compiler.
 */
template <class Cpu>
GoldenRun
runGoldenStream(MemoryHierarchy &hier, GshareBp &bp)
{
    Cpu cpu(CpuParams{}, &hier, &bp);
    Pcg32 rng(2024, 7);
    GoldenRun run;
    Addr pc = 0x400000;
    Addr stream = 0x40000000;
    for (int i = 1; i <= 50000; ++i) {
        MicroOp op;
        if (rng.range(16) == 0)
            pc = 0x400000 + 64ULL * rng.range(4096);  // 256KB code
        op.pc = pc;
        pc += 4;
        std::uint32_t kind = rng.range(10);
        op.cls = kind < 3   ? OpClass::IntAlu
                 : kind < 4 ? OpClass::FpAlu
                 : kind < 7 ? OpClass::Load
                 : kind < 9 ? OpClass::Store
                            : OpClass::Branch;
        op.depDist = static_cast<std::uint8_t>(
            rng.range(4) == 0 ? rng.range(256) : rng.range(8));
        op.execLat = op.cls == OpClass::FpAlu
                         ? static_cast<std::uint8_t>(1 + rng.range(6))
                     : op.cls == OpClass::Load ? 0
                                               : 1;
        if (op.cls == OpClass::Load || op.cls == OpClass::Store) {
            switch (rng.range(8)) {
              case 4:  // 512KB: L2-resident, L1-missing
                op.effAddr = 0x20000000 + 8ULL * rng.range(65536);
                break;
              case 5:  // 4MB: past the L2
                op.effAddr = 0x30000000 + 64ULL * rng.range(65536);
                break;
              case 6:
              case 7:  // streaming, eight ops per line
                op.effAddr = stream;
                stream += 8;
                break;
              default:  // hot 4KB
                op.effAddr = 0x10000000 + 8ULL * rng.range(512);
                break;
            }
        }
        if (op.cls == OpClass::Branch)
            op.taken = rng.range(4) == 0 ? rng.range(2) == 0
                                         : rng.range(16) != 0;
        cpu.execute(op, rng.range(8) == 0 ? Owner::Os : Owner::App);
        if (i % 997 == 0)
            run.cycles += cpu.drain();
        if (i == 25000) {
            run.cycles += cpu.drain();
            cpu = Cpu(CpuParams{}, &hier, &bp);
        }
    }
    run.cycles += cpu.drain();
    run.counts = hier.counts();
    return run;
}

void
expectGolden(const GoldenRun &got, Cycles cycles,
             const HierarchyCounts &want)
{
    EXPECT_EQ(got.cycles, cycles);
    EXPECT_EQ(got.counts.l1iAccesses, want.l1iAccesses);
    EXPECT_EQ(got.counts.l1iMisses, want.l1iMisses);
    EXPECT_EQ(got.counts.l1dAccesses, want.l1dAccesses);
    EXPECT_EQ(got.counts.l1dMisses, want.l1dMisses);
    EXPECT_EQ(got.counts.l2Accesses, want.l2Accesses);
    EXPECT_EQ(got.counts.l2Misses, want.l2Misses);
}

/** Pins the OOO engine's cycles and the hierarchy's counters on
 *  the golden stream: a host-speed rework of the engine (ROB ring,
 *  MSHR choice, L1 lookup) must not move a simulated value. */
TEST(OooCpu, GoldenCyclesOnSeededStream)
{
    MemoryHierarchy hier{HierarchyParams{}};
    GshareBp bp(12);
    GoldenRun run = runGoldenStream<OooCpu>(hier, bp);
    expectGolden(run, 2198555,
                 HierarchyCounts{4875, 4568, 25159, 7278, 11846, 9358});
}

/** As above for the in-order engine (blocking loads, write-buffer
 *  store misses). */
TEST(InOrderCpu, GoldenCyclesOnSeededStream)
{
    MemoryHierarchy hier{HierarchyParams{}};
    GshareBp bp(12);
    GoldenRun run = runGoldenStream<InOrderCpu>(hier, bp);
    expectGolden(run, 3758033,
                 HierarchyCounts{4831, 4568, 25159, 7278, 11846, 9358});
}

} // namespace
} // namespace osp
