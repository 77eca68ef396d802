/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot
 * components: cache access, code generation (the emulation cost
 * floor), branch prediction, the two timing models, and the whole
 * Machine run loop per detail level. These bound
 * the achievable Table 1 ratios.
 *
 * Besides the usual google-benchmark CLI, `--bench-json PATH`
 * switches to a self-timed mode that measures the end-to-end hot
 * path (simulated MIPS per detail level, cache accesses/sec) and
 * merges the numbers into an "ospredict-bench-v1" document — the
 * artifact tools/check_perf_baseline.py gates in CI — together with
 * the Full-over-Accelerated and Full-over-SampledAccel wall speedups
 * of one fixed cell. `--smoke` shrinks the measured budgets.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include <cstdio>

#include <unistd.h>

#include "bench_json.hh"
#include "common.hh"
#include "driver/experiments.hh"
#include "mem/hierarchy.hh"
#include "obs/telemetry.hh"
#include "os/layout.hh"
#include "sim/codegen.hh"
#include "sim/inorder_cpu.hh"
#include "sim/ooo_cpu.hh"
#include "store/claim_table.hh"
#include "store/page_store.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workload/registry.hh"

namespace
{

using namespace osp;

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(CacheParams{"l1", 16 * 1024, 4, 64});
    Pcg32 rng(1);
    std::vector<Addr> addrs;
    for (int i = 0; i < 4096; ++i)
        addrs.push_back(64ULL * rng.range(1024));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(addrs[i++ & 4095], false, Owner::App));
    }
}
BENCHMARK(BM_CacheAccess);

/**
 * Footprint pollution of one predicted OS service at the default
 * geometry: a full data sample (2048 addresses over a 4MB kernel
 * region) installed into L1D, L2 and the DTLB, cycled to 4096
 * lines, each iteration the next of 16 such samples. Reported per
 * installed line, next to BM_CacheAccess.
 */
void
BM_FootprintInstall(benchmark::State &state)
{
    MemoryHierarchy hier((HierarchyParams()));
    Pcg32 rng(1);
    std::vector<std::vector<Addr>> samples(16);
    for (std::vector<Addr> &sample : samples)
        for (int i = 0; i < 2048; ++i)
            sample.push_back(0xc0000000ULL + 64ULL * rng.range(65536));
    constexpr std::uint64_t kLines = 4096;
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hier.installFootprint(
            samples[next], kLines, false, Owner::Os));
        next = (next + 1) % samples.size();
    }
    state.counters["per_line"] = benchmark::Counter(
        static_cast<double>(state.iterations() * kLines),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FootprintInstall);

/** The data and code samples of an ab-seq-shaped predicted
 *  service: about 1,043 distinct data lines (eight page-cache
 *  frames, the user buffer they are copied to, a few metadata
 *  lines) and 160 code lines, the frames and the metadata and code
 *  lines drawn from @p seed. Each sample is shuffled, as a
 *  footprint draw's golden-ratio walk scatters a plan's lines: in
 *  address order, consecutive installs would fall into consecutive
 *  sets and the host's branch predictor would learn their hits. */
struct AbSeqFootprint
{
    std::vector<Addr> data, code;
    static constexpr std::uint64_t kDataInstalls = 1256;
    static constexpr std::uint64_t kCodeInstalls = 160;

    explicit AbSeqFootprint(std::uint64_t seed)
    {
        Pcg32 rng(seed);
        for (int page = 0; page < 8; ++page) {
            const Addr frame = 0xc8000000ULL + 4096ULL * rng.range(16384);
            for (Addr off = 0; off < 4096; off += 64) {
                data.push_back(frame + off);
                data.push_back(0x10000000ULL + 4096ULL * page + off);
            }
        }
        for (int i = 0; i < 19; ++i)
            data.push_back(0xc1000000ULL + 64ULL * rng.range(16384));
        for (int i = 0; i < 160; ++i)
            code.push_back(0xc0400000ULL + 64ULL * rng.range(1024));
        for (std::vector<Addr> *v : {&data, &code}) {
            for (std::size_t i = v->size() - 1; i > 0; --i) {
                const auto j = static_cast<std::uint32_t>(i + 1);
                std::swap((*v)[i], (*v)[rng.range(j)]);
            }
        }
    }

    std::uint64_t
    install(MemoryHierarchy &hier) const
    {
        return hier.installFootprint(data, kDataInstalls, false,
                                     Owner::Os).l1Fills +
               hier.installFootprint(code, kCodeInstalls, true,
                                     Owner::Os).l1Fills;
    }
};

/** Sixteen AbSeqFootprint samples, installed in turn so that
 *  consecutive installs differ as consecutive services' do: a loop
 *  that reinstalls one sample lets the host's branch predictor
 *  learn each hit and miss. */
std::vector<AbSeqFootprint>
abSeqFootprints()
{
    std::vector<AbSeqFootprint> fps;
    for (std::uint64_t seed = 1; seed <= 16; ++seed)
        fps.emplace_back(seed);
    return fps;
}

/**
 * The installs of one ab-seq-shaped predicted service at the
 * default geometry, the next of abSeqFootprints() per iteration:
 * 1,256 data installs cycled over its data lines through L1D, L2
 * and the DTLB, then its 160 code lines through L1I, L2 and the
 * ITLB. Reported per installed line.
 */
void
BM_FootprintInstallAbSeq(benchmark::State &state)
{
    MemoryHierarchy hier((HierarchyParams()));
    const std::vector<AbSeqFootprint> fps = abSeqFootprints();
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(fps[next].install(hier));
        next = (next + 1) % fps.size();
    }
    state.counters["per_line"] = benchmark::Counter(
        static_cast<double>(state.iterations() *
                            (AbSeqFootprint::kDataInstalls +
                             AbSeqFootprint::kCodeInstalls)),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FootprintInstallAbSeq);

/** A read-like plan: entry and exit on the stack, random metadata
 *  walks, a 4KB copy. */
void
pushSmallReadPlan(CodeGenerator &gen)
{
    CodeProfile prof;
    prof.code = Region{0xc0400000ULL, 64 * 1024};
    gen.pushCompute(prof, 90, Region{0xc0010000ULL, 8192});
    gen.pushCompute(prof, 400, Region{0xc1000000ULL, 1 << 20},
                    PatternKind::Random);
    gen.pushCompute(prof, 300, Region{0xc2000000ULL, 1 << 20},
                    PatternKind::PointerChase);
    gen.pushCopy(prof, 4096, Region{0xc3000000ULL, 1 << 20},
                 Region{0x10000000ULL, 4096});
    gen.pushCompute(prof, 70, Region{0xc0010000ULL, 8192});
}

/**
 * The plan SyntheticKernel queues for one of ab-seq's 16KB reads
 * from resident page-cache pages: entry, a dentry lookup, then per
 * 4KB page a struct-page touch and a copy from the page's frame to
 * the user buffer, and exit. With the kernel's layout and profiles.
 * The plan touches fewer lines than the caps ask for, so the draw
 * visits nearly every position.
 */
void
pushAbSeqReadPlan(CodeGenerator &gen)
{
    const KernelLayout layout = makeKernelLayout();
    const CodeProfile entry = entryProfile(layout);
    const CodeProfile read = serviceProfile(layout, ServiceType::SysRead);
    const CodeProfile copy = copyProfile(layout, ServiceType::SysRead);
    gen.pushCompute(entry, 90, layout.stack);
    gen.pushCompute(read, 220, layout.dentryArea, PatternKind::Random);
    for (Addr page = 0; page < 4; ++page) {
        const Addr frame =
            layout.pageCacheArea.base + 4096 * (8 + 37 * page);
        gen.pushCompute(read, 60, layout.mmArea);
        gen.pushCopy(copy, 4096, Region{frame, 4096},
                     Region{0x10000000ULL + 4096 * page, 4096});
    }
    gen.pushCompute(entry, 70, layout.stack);
}

/** Generators holding the plan @p push queues, each on its own RNG
 *  stream, so consecutive draws differ as consecutive services'
 *  do: a loop that redraws one footprint lets the host's branch
 *  predictor learn it. */
std::vector<CodeGenerator>
footprintPlans(void (*push)(CodeGenerator &))
{
    std::vector<CodeGenerator> gens;
    for (std::uint64_t stream = 0; stream < 16; ++stream) {
        gens.emplace_back(1, stream);
        push(gens.back());
    }
    return gens;
}

/** Draw a footprint of the plan @p push queues, asking for @p
 *  data_lines and @p code_lines, from the next of footprintPlans()
 *  per iteration; report per drawn line, which also pays for the
 *  positions visited on a line already drawn. */
void
runFootprintDraw(benchmark::State &state, void (*push)(CodeGenerator &),
                 std::size_t data_lines, std::size_t code_lines)
{
    std::vector<CodeGenerator> gens = footprintPlans(push);
    std::vector<Addr> data, code;
    std::uint64_t lines = 0;
    std::size_t next = 0;
    for (auto _ : state) {
        gens[next].drawFootprint(data_lines, code_lines, data, code);
        next = (next + 1) % gens.size();
        benchmark::DoNotOptimize(data.data());
        benchmark::DoNotOptimize(code.data());
        lines += data.size() + code.size();
    }
    state.counters["per_line"] = benchmark::Counter(
        static_cast<double>(lines),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/**
 * Drawing one predicted service's footprint from its plan, the
 * sample BM_FootprintInstall installs: the small read-like plan
 * drawn at 256 data and 64 code lines.
 */
void
BM_FootprintDraw(benchmark::State &state)
{
    runFootprintDraw(state, pushSmallReadPlan, 256, 64);
}
BENCHMARK(BM_FootprintDraw);

/** The other end of plan size: one of ab-seq's 16KB reads, drawn
 *  at the predicted path's caps (2048 data, 512 code lines). */
void
BM_FootprintDrawAbSeqRead(benchmark::State &state)
{
    runFootprintDraw(state, pushAbSeqReadPlan, 2048, 512);
}
BENCHMARK(BM_FootprintDrawAbSeqRead);

void
BM_HierarchyAccess(benchmark::State &state)
{
    MemoryHierarchy hier((HierarchyParams()));
    Pcg32 rng(1);
    std::vector<Addr> addrs;
    for (int i = 0; i < 4096; ++i)
        addrs.push_back(64ULL * rng.range(65536));
    std::size_t i = 0;
    Cycles now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hier.access(
            addrs[i++ & 4095], AccessType::Load, Owner::App,
            now += 4));
    }
}
BENCHMARK(BM_HierarchyAccess);

void
BM_CodegenLowering(benchmark::State &state)
{
    CodeProfile prof;
    prof.code = Region{0x400000, 32 * 1024};
    CodeGenerator gen(1, 1);
    for (auto _ : state) {
        if (gen.done()) {
            gen.pushCompute(prof, 4096, Region{0x1000000, 65536},
                            PatternKind::Random);
        }
        benchmark::DoNotOptimize(gen.next());
    }
}
BENCHMARK(BM_CodegenLowering);

void
BM_GsharePredict(benchmark::State &state)
{
    GshareBp bp(12);
    Pcg32 rng(1);
    Addr pc = 0x400000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bp.predictAndUpdate(pc, rng.chance(0.9)));
        pc += 4;
    }
}
BENCHMARK(BM_GsharePredict);

void
BM_InOrderExecute(benchmark::State &state)
{
    MemoryHierarchy hier((HierarchyParams()));
    CpuParams params;
    GshareBp bp(12);
    InOrderCpu cpu(params, &hier, &bp);
    CodeProfile prof;
    prof.code = Region{0x400000, 32 * 1024};
    CodeGenerator gen(1, 2);
    for (auto _ : state) {
        if (gen.done()) {
            gen.pushCompute(prof, 4096, Region{0x1000000, 65536},
                            PatternKind::Random);
        }
        cpu.execute(gen.next(), Owner::App);
    }
    benchmark::DoNotOptimize(cpu.now());
}
BENCHMARK(BM_InOrderExecute);

void
BM_OooExecute(benchmark::State &state)
{
    MemoryHierarchy hier((HierarchyParams()));
    CpuParams params;
    GshareBp bp(12);
    OooCpu cpu(params, &hier, &bp);
    CodeProfile prof;
    prof.code = Region{0x400000, 32 * 1024};
    CodeGenerator gen(1, 3);
    for (auto _ : state) {
        if (gen.done()) {
            gen.pushCompute(prof, 4096, Region{0x1000000, 65536},
                            PatternKind::Random);
        }
        cpu.execute(gen.next(), Owner::App);
    }
    benchmark::DoNotOptimize(cpu.now());
}
BENCHMARK(BM_OooExecute);

void
BM_TelemetryCounterInc(benchmark::State &state)
{
    // The attached hot-path cost: one increment through a pointer
    // cached at attach time.
    obs::Registry reg;
    obs::Counter *c = &reg.counter("bench", "ops");
    for (auto _ : state) {
        c->inc();
        benchmark::DoNotOptimize(c);
    }
    benchmark::DoNotOptimize(c->value());
}
BENCHMARK(BM_TelemetryCounterInc);

void
BM_TelemetryDetachedPath(benchmark::State &state)
{
    // The detached (default) cost every instrumented site pays: a
    // null-pointer test. This is what the <= 2% overhead budget on
    // the component benches rests on.
    obs::Counter *c = nullptr;
    benchmark::DoNotOptimize(c);
    for (auto _ : state) {
        if (c)
            c->inc();
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_TelemetryDetachedPath);

void
BM_TelemetryTracerDisabled(benchmark::State &state)
{
    // record() on a capacity-0 tracer: a single predictable branch.
    obs::EventTracer tracer(0);
    for (auto _ : state) {
        tracer.record(obs::TraceEventKind::ClusterMatch, 3, 10, 20);
        benchmark::DoNotOptimize(tracer);
    }
}
BENCHMARK(BM_TelemetryTracerDisabled);

void
BM_TelemetryTracerRecord(benchmark::State &state)
{
    // Steady-state ring overwrite (the enabled worst case).
    obs::EventTracer tracer(4096);
    std::uint64_t i = 0;
    for (auto _ : state) {
        tracer.setTick(++i);
        tracer.record(obs::TraceEventKind::ClusterMatch, 3, i, 20);
        benchmark::DoNotOptimize(tracer);
    }
}
BENCHMARK(BM_TelemetryTracerRecord);

/** Shared scaffold for whole-machine loop benchmarks: each
 *  iteration runs a fresh machine for a fixed instruction budget;
 *  items/sec is therefore simulated instructions/sec. */
void
runMachineBench(benchmark::State &state, DetailLevel level)
{
    // Past gzip's ~2M-instruction emulated warm-up, so the timing
    // levels run on their own engine (see runBenchJson).
    constexpr InstCount kInsts = 3'000'000;
    for (auto _ : state) {
        state.PauseTiming();
        MachineConfig cfg = bench::paperConfig();
        cfg.level = level;
        auto machine = makeMachine("gzip", cfg, 1.0);
        state.ResumeTiming();
        benchmark::DoNotOptimize(machine->run(kInsts).totalInsts());
        state.PauseTiming();
        machine.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * kInsts);
}

/** The batched run loop in pure emulation. */
void
BM_MachineEmulateBlock(benchmark::State &state)
{
    runMachineBench(state, DetailLevel::Emulate);
}
BENCHMARK(BM_MachineEmulateBlock)->Unit(benchmark::kMillisecond);

void
BM_MachineInOrderCacheBlock(benchmark::State &state)
{
    runMachineBench(state, DetailLevel::InOrderCache);
}
BENCHMARK(BM_MachineInOrderCacheBlock)
    ->Unit(benchmark::kMillisecond);

/**
 * One distributed-sweep coordination unit: the claim transaction
 * (claim record) and the commit transaction (cell value + done
 * record) a worker pays per cell on top of the simulation itself —
 * two synced store commits through the shared-mode writer gate.
 * Bounds how small a cell can get before coordination dominates
 * (driver/claim_executor.hh). BM_SweepClaimLoop and the
 * `claim_commit_pairs_per_sec` metric both time this.
 */
void
claimCommitPair(store::PageStore &pstore,
                const store::ClaimTable &table, std::uint64_t i)
{
    std::string key = "k" + std::to_string(i);
    {
        store::WriteTx tx = pstore.beginWrite();
        store::ClaimRecord rec;
        rec.owner = "bench";
        table.put(tx, key, rec);
        tx.commit();
    }
    {
        store::WriteTx tx = pstore.beginWrite();
        auto rec = table.get(tx, key);
        rec->state = store::ClaimState::Done;
        tx.put("cell/fp/" + key, "value");
        table.put(tx, key, *rec);
        tx.commit();
    }
}

void
BM_SweepClaimLoop(benchmark::State &state)
{
    std::string path = "/tmp/osp_bm_claim_" +
                       std::to_string(::getpid()) + ".db";
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
    {
        store::StoreOptions sopts;
        sopts.shared = true;
        auto pstore = store::PageStore::open(path, sopts);
        store::ClaimTable table("fp");
        std::uint64_t i = 0;
        for (auto _ : state)
            claimCommitPair(*pstore, table, i++);
    }
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}
BENCHMARK(BM_SweepClaimLoop)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------
// --bench-json mode: self-timed hot-path measurements with a
// deterministic schema (values vary by machine; the CI gate checks
// mode ratios).
// ---------------------------------------------------------------

/**
 * Best-of-3 wall seconds for one fresh machine run. Fatal when the
 * run ends well short of @p insts, or when a timing level's run
 * charges no application cycles: warm-up always runs in emulation,
 * so such a run never reached its own engine and would time the
 * same warm-up as every other mode.
 */
double
timeMachineRun(DetailLevel level, InstCount insts)
{
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        MachineConfig cfg = bench::paperConfig();
        cfg.level = level;
        auto machine = makeMachine("gzip", cfg, 1.0);
        auto t0 = std::chrono::steady_clock::now();
        const RunTotals &totals = machine->run(insts);
        auto t1 = std::chrono::steady_clock::now();
        double secs =
            std::chrono::duration<double>(t1 - t0).count();
        InstCount done = totals.totalInsts();
        if (done + done / 10 < insts) {
            osp_fatal("microbench: workload finished early (", done,
                      " of ", insts, " insts)");
        }
        if (isDetailed(level) && totals.appCycles == 0) {
            osp_fatal("microbench: ", detailLevelName(level),
                      " run retired no post-warm-up instructions");
        }
        double mips_time = secs / static_cast<double>(done);
        if (rep == 0 || mips_time < best)
            best = mips_time;
    }
    return best;  // seconds per instruction
}

/** Best-of-3 seconds per access on the L1-sized cache loop. */
double
timeCacheAccess(std::uint64_t accesses)
{
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        Cache cache(CacheParams{"l1", 16 * 1024, 4, 64});
        Pcg32 rng(1);
        std::vector<Addr> addrs;
        for (int i = 0; i < 4096; ++i)
            addrs.push_back(64ULL * rng.range(1024));
        std::uint64_t hits = 0;
        auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < accesses; ++i)
            hits += cache.access(addrs[i & 4095], false,
                                 Owner::App).hit;
        auto t1 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(hits);
        double secs =
            std::chrono::duration<double>(t1 - t0).count() /
            static_cast<double>(accesses);
        if (rep == 0 || secs < best)
            best = secs;
    }
    return best;
}

/**
 * Best-of-3 seconds per drawn footprint line: @p reps rounds of
 * draws from each footprintPlans() generator of both
 * BM_FootprintDraw* plans (small read, ab-seq read) at the
 * predicted path's caps, total time over total lines.
 */
double
timeFootprintDraw(int reps)
{
    std::vector<CodeGenerator> gens = footprintPlans(pushSmallReadPlan);
    for (CodeGenerator &gen : footprintPlans(pushAbSeqReadPlan))
        gens.push_back(std::move(gen));
    std::vector<Addr> data, code;
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        std::uint64_t lines = 0;
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < reps; ++i) {
            for (CodeGenerator &gen : gens) {
                gen.drawFootprint(2048, 512, data, code);
                lines += data.size() + code.size();
            }
        }
        auto t1 = std::chrono::steady_clock::now();
        double secs =
            std::chrono::duration<double>(t1 - t0).count() /
            static_cast<double>(lines);
        if (rep == 0 || secs < best)
            best = secs;
    }
    return best;
}

/** Best-of-3 seconds per installed footprint line: @p reps
 *  installs of the ab-seq-shaped footprints, in turn
 *  (BM_FootprintInstallAbSeq), into one hierarchy. */
double
timeFootprintInstall(int reps)
{
    const std::vector<AbSeqFootprint> fps = abSeqFootprints();
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        MemoryHierarchy hier((HierarchyParams()));
        std::uint64_t fills = 0;
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < reps; ++i)
            fills += fps[i % fps.size()].install(hier);
        auto t1 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(fills);
        double secs =
            std::chrono::duration<double>(t1 - t0).count() /
            static_cast<double>(reps *
                                (AbSeqFootprint::kDataInstalls +
                                 AbSeqFootprint::kCodeInstalls));
        if (rep == 0 || secs < best)
            best = secs;
    }
    return best;
}

/** Best-of-3 seconds per claim/commit transaction pair (the
 *  per-cell coordination overhead of a distributed sweep). */
double
timeClaimLoop(std::uint64_t pairs)
{
    std::string path = "/tmp/osp_bench_claim_" +
                       std::to_string(::getpid()) + ".db";
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        std::remove(path.c_str());
        std::remove((path + ".lock").c_str());
        store::StoreOptions sopts;
        sopts.shared = true;
        auto pstore = store::PageStore::open(path, sopts);
        store::ClaimTable table("fp");
        auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < pairs; ++i)
            claimCommitPair(*pstore, table, i);
        auto t1 = std::chrono::steady_clock::now();
        double secs =
            std::chrono::duration<double>(t1 - t0).count() /
            static_cast<double>(pairs);
        if (rep == 0 || secs < best)
            best = secs;
    }
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
    return best;
}

/**
 * End-to-end wall speedups of one fixed cell, ab-seq at fig13's
 * operating point: Full wall seconds over Accelerated and over
 * SampledAccel wall seconds, each the best of 3 in-process runs on
 * this thread, with the three modes interleaved in every round so
 * host drift weighs them alike. Fatal when a cell fails or a
 * predicting cell covers under 30% of OS invocations, where the
 * ratio would time learning rather than skipping.
 */
std::vector<bench::BenchMetric>
wallSpeedups()
{
    SweepSpec spec = fig13Sweep(bench::smokeFactor());
    spec.workloads = {"ab-seq"};
    spec.modes = {RunMode::Full, RunMode::Accelerated,
                  RunMode::SampledAccel};
    std::map<RunMode, double> best;
    for (int rep = 0; rep < 3; ++rep) {
        for (const SweepCell &cell : expandSweep(spec)) {
            auto t0 = std::chrono::steady_clock::now();
            CellResult r = runCell(spec, cell);
            auto t1 = std::chrono::steady_clock::now();
            double secs =
                std::chrono::duration<double>(t1 - t0).count();
            const char *mode = runModeName(cell.mode);
            if (r.failed)
                osp_fatal("microbench: ab-seq ", mode,
                          " cell failed: ", r.error);
            if (needsPredictor(cell.mode) &&
                r.totals.coverage() < 0.3) {
                osp_fatal("microbench: ab-seq ", mode,
                          " coverage ", r.totals.coverage(),
                          " is below 0.3");
            }
            double &b = best[cell.mode];
            if (rep == 0 || secs < b)
                b = secs;
        }
    }
    double full = best[RunMode::Full];
    return {
        {"accel_vs_full_wall", full / best[RunMode::Accelerated],
         "x"},
        {"sampled_accel_vs_full_wall",
         full / best[RunMode::SampledAccel], "x"},
    };
}

int
runBenchJson(const std::string &path)
{
    // Smoke shrinks the budgets ~4x: enough for stable ratios in
    // CI, small enough to finish in seconds even unoptimised.
    const bool smoke = bench::smokeMode();
    // All three machine modes run the same instruction budget, so
    // mode *ratios* compare one operating point. gzip at scale 1
    // runs its first ~2M instructions as warm-up, in emulation
    // whatever the mode, and finishes at ~4.02M: these budgets give
    // every mode 1M (smoke) or 2M instructions on its own engine.
    const InstCount machine_insts = smoke ? 3'000'000 : 4'000'000;
    const std::uint64_t cache_accesses =
        smoke ? 4'000'000 : 16'000'000;

    auto mips = [](double secs_per_inst) {
        return 1.0 / (secs_per_inst * 1e6);
    };

    std::vector<bench::BenchMetric> metrics;
    metrics.push_back(
        {"emulate_block_mips",
         mips(timeMachineRun(DetailLevel::Emulate, machine_insts)),
         "mips"});
    metrics.push_back(
        {"inorder_cache_mips",
         mips(timeMachineRun(DetailLevel::InOrderCache,
                             machine_insts)),
         "mips"});
    metrics.push_back(
        {"ooo_cache_mips",
         mips(timeMachineRun(DetailLevel::OooCache, machine_insts)),
         "mips"});
    metrics.push_back(
        {"cache_accesses_per_sec",
         1.0 / timeCacheAccess(cache_accesses), "1/s"});
    metrics.push_back(
        {"footprint_draw_ns_per_line",
         1e9 * timeFootprintDraw(smoke ? 10 : 50), "ns"});
    metrics.push_back(
        {"footprint_install_ns_per_line",
         1e9 * timeFootprintInstall(smoke ? 500 : 2000), "ns"});
    metrics.push_back(
        {"claim_commit_pairs_per_sec",
         1.0 / timeClaimLoop(smoke ? 64 : 256), "1/s"});
    for (const bench::BenchMetric &m : wallSpeedups())
        metrics.push_back(m);

    if (!bench::mergeBenchJson(path, smoke, metrics))
        return 1;
    for (const auto &m : metrics) {
        std::cerr << "microbench: " << m.name << " = " << m.value
                  << " " << m.unit << "\n";
    }
    std::cerr << "microbench: bench json -> " << path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    osp::bench::init(argc, argv);
    std::vector<char *> keep;
    keep.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--bench-json") == 0 &&
            i + 1 < argc) {
            return runBenchJson(argv[i + 1]);
        }
        if (std::strcmp(argv[i], "--smoke") == 0)
            continue;  // consumed by bench::init()
        keep.push_back(argv[i]);
    }
    int kept = static_cast<int>(keep.size());
    benchmark::Initialize(&kept, keep.data());
    keep.resize(static_cast<std::size_t>(kept));
    if (benchmark::ReportUnrecognizedArguments(kept, keep.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
