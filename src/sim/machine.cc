#include "machine.hh"

#include <algorithm>
#include <type_traits>

#include "util/logging.hh"

namespace osp
{

const char *
pollutionPolicyName(PollutionPolicy policy)
{
    switch (policy) {
      case PollutionPolicy::None: return "none";
      case PollutionPolicy::PaperInvalidateApp:
        return "paper-invalidate-app";
      case PollutionPolicy::InvalidateAny: return "invalidate-any";
      case PollutionPolicy::SyntheticInstall:
        return "synthetic-install";
      case PollutionPolicy::Footprint: return "footprint";
    }
    return "?";
}

Machine::Machine(const MachineConfig &config,
                 std::unique_ptr<UserProgram> workload,
                 std::unique_ptr<KernelIface> kernel)
    : config_(config),
      workload_(std::move(workload)),
      kernel_(std::move(kernel)),
      hier(config_.hier),
      bp(12),
      inorder(config_.cpu, &hier, &bp),
      inorderNoCache(config_.cpu, nullptr, &bp),
      ooo(config_.cpu, &hier, &bp),
      oooNoCache(config_.cpu, nullptr, &bp),
      serviceGen(config_.seed, 0x05ECA11ULL)
{
    if (!workload_)
        osp_fatal("Machine requires a workload");
    if (!kernel_ && !config_.appOnly)
        osp_fatal("Machine requires a kernel unless appOnly is set");
}

void
Machine::setController(ServiceController *ctrl)
{
    controller = ctrl;
}

void
Machine::setIntervalProfiler(IntervalProfiler *profiler)
{
    profiler_ = profiler;
}

void
Machine::setSamplePlan(const SamplePlan *plan)
{
    samplePlan_ = plan;
}

void
Machine::setTelemetry(obs::Telemetry *telemetry)
{
    telemetry_ = telemetry;
    if (!telemetry) {
        cServicesDetailed_ = nullptr;
        cServicesPredicted_ = nullptr;
        cPollutionRequested_ = nullptr;
        cPollutionAffected_ = nullptr;
        cFootprintFills_ = nullptr;
        cIntervalsSampled_ = nullptr;
        cSampleDetailedInsts_ = nullptr;
        cSampleFfInsts_ = nullptr;
        hServiceInsts_ = nullptr;
        return;
    }
    obs::Registry &reg = telemetry->registry;
    cServicesDetailed_ = &reg.counter("machine", "services_detailed");
    cServicesPredicted_ =
        &reg.counter("machine", "services_predicted");
    cPollutionRequested_ =
        &reg.counter("machine", "pollution_lines_requested");
    cPollutionAffected_ =
        &reg.counter("machine", "pollution_slots_affected");
    cFootprintFills_ =
        &reg.counter("machine", "footprint_install_fills");
    cIntervalsSampled_ =
        &reg.counter("machine", "intervals_sampled");
    cSampleDetailedInsts_ =
        &reg.counter("machine", "sample_detailed_insts");
    cSampleFfInsts_ = &reg.counter("machine", "sample_ff_insts");
    hServiceInsts_ = &reg.histogram("machine", "service_insts");
}

void
Machine::warmOp(const MicroOp &op, Addr &fetch_line)
{
    // Same state-mutating calls the timing engines make (fetch per
    // new 64B line, one access per load/store, one predictor update
    // per branch), through the bus-neutral warm path so only cache
    // contents and predictor state carry across the fast-forward.
    if (usesCaches(config_.level)) {
        const Addr line = op.pc >> 6;
        if (line != fetch_line) {
            fetch_line = line;
            hier.warmAccess(op.pc, AccessType::InstFetch,
                            Owner::App);
        }
        if (op.cls == OpClass::Load)
            hier.warmAccess(op.effAddr, AccessType::Load,
                            Owner::App);
        else if (op.cls == OpClass::Store)
            hier.warmAccess(op.effAddr, AccessType::Store,
                            Owner::App);
    }
    if (op.cls == OpClass::Branch)
        bp.predictAndUpdate(op.pc, op.taken);
}

void
Machine::publishCacheStats()
{
    if (!telemetry_)
        return;
    obs::Registry &reg = telemetry_->registry;
    auto publish = [&](const std::string &comp, const Cache &c) {
        const CacheStats &s = c.stats();
        auto app = static_cast<int>(Owner::App);
        auto os = static_cast<int>(Owner::Os);
        reg.counter(comp, "accesses_app").inc(s.accesses[app]);
        reg.counter(comp, "accesses_os").inc(s.accesses[os]);
        reg.counter(comp, "misses_app").inc(s.misses[app]);
        reg.counter(comp, "misses_os").inc(s.misses[os]);
        reg.counter(comp, "evictions").inc(s.evictions);
        reg.counter(comp, "writebacks").inc(s.writebacks);
        reg.counter(comp, "cross_evictions").inc(s.crossEvictions);
        reg.counter(comp, "injected_evictions")
            .inc(s.injectedEvictions);
        reg.counter(comp, "injected_fills").inc(s.injectedFills);
    };
    publish("mem.l1i", hier.l1i());
    publish("mem.l1d", hier.l1d());
    publish("mem.l2", hier.l2());
}

template <class EngineT>
void
Machine::drainIntoT(EngineT *eng, Owner owner)
{
    if constexpr (std::is_same_v<EngineT, EmulateEngine>) {
        (void)eng;
        (void)owner;
    } else {
        Cycles cycles = eng->drain();
        if (cycles == 0)
            return;
        if (owner == Owner::App)
            totals_.appCycles += cycles;
        else
            totals_.osSimCycles += cycles;
    }
}

template <class EngineT>
void
Machine::deliverInterruptsT(EngineT *eng)
{
    while (auto irq = kernel_->pendingInterrupt(totals_.totalInsts()))
        runServiceT(eng, *irq);
}

template <class EngineT>
void
Machine::runServiceT(EngineT *eng, const ServiceRequest &req)
{
    constexpr bool timing =
        !std::is_same_v<EngineT, EmulateEngine>;
    auto type_idx = static_cast<int>(req.type);

    // Trace events from here on (including the controller's) stamp
    // the retired-instruction count, which is thread-count-invariant
    // unlike any wall clock.
    if (telemetry_)
        telemetry_->tracer.setTick(totals_.totalInsts());

    // A controller participates only when the run's configured
    // level is detailed — i.e. when it is actually offered the
    // chooseLevel() decision. An Emulate-level run with a
    // controller attached (e.g. the Phase-1 profiling pass of
    // sampled simulation) must not feed the predictor's learning or
    // audit state: a later detailed pass over the same controller
    // would double-count every service.
    const bool controller_active =
        controller && isDetailed(config_.level);

    // Decide the detail level for this invocation.
    DetailLevel level;
    if (!warmupDone) {
        level = DetailLevel::Emulate;
    } else if (controller_active) {
        DetailLevel chosen = controller->chooseLevel(req.type);
        // Any detailed choice maps onto the run's detail engine so
        // one run uses a single consistent timing model.
        level = isDetailed(chosen) ? config_.level
                                   : DetailLevel::Emulate;
    } else {
        level = config_.level;
    }
    bool detailed = isDetailed(level);

    // Close the application segment.
    drainIntoT(eng, Owner::App);

    // Functional execution + plan. Restarting the service generator
    // per invocation, seeded by the global invocation sequence,
    // keeps the stream identical regardless of the chosen detail
    // level; only its geometric tables carry over.
    CodeGenerator &gen = serviceGen;
    gen.restart(config_.seed, 0x05ECA11ULL + ++serviceSeq);
    HierarchyCounts before = hier.counts();
    ServiceResult result = kernel_->invoke(
        req.type, req.args, totals_.totalInsts(), &gen);

    InstCount n = 0;
    if (detailed) {
        if constexpr (timing) {
            // The hot learning path: retire the kernel plan in
            // blocks on the concrete engine — no virtual dispatch,
            // no per-op queue-front checks.
            MicroOp buf[kMaxBlockOps];
            std::size_t filled;
            while ((filled = gen.nextBlock(buf, kMaxBlockOps)) != 0) {
                for (std::size_t i = 0; i < filled; ++i)
                    eng->execute(buf[i], Owner::Os);
                n += filled;
            }
        }
    } else {
        // Nothing consumes the op stream: the plan's size is known
        // analytically, which is the fastest emulation mode. The
        // plan stays queued for the footprint draw below; the
        // next invocation's restart() drops it.
        n = gen.pendingOps();
    }
    totals_.osInsts += n;

    Cycles sim_cycles = 0;
    HierarchyCounts mem_delta;
    if (detailed) {
        if constexpr (timing) {
            sim_cycles = eng->drain();
            totals_.osSimCycles += sim_cycles;
            mem_delta = hier.counts() - before;
        }
    }

    if (!warmupDone) {
        lastServiceResult = result;
        return;
    }

    std::uint64_t invocation = invocationIndex[type_idx]++;
    ++totals_.osInvocations;
    auto &svc = totals_.perService[type_idx];
    ++svc.invocations;
    svc.insts += n;

    if (profiler_)
        profiler_->noteService(
            totals_.appInsts / profiler_->intervalLen(), req.type,
            n);

    ServiceController::Prediction pred;
    if (controller_active) {
        ServiceController::IntervalOutcome outcome;
        outcome.type = req.type;
        outcome.invocation = invocation;
        outcome.insts = n;
        outcome.detailed = detailed;
        outcome.cycles = sim_cycles;
        outcome.mem = mem_delta;
        pred = controller->onServiceEnd(outcome);
    }

    IntervalRecord rec;
    rec.type = req.type;
    rec.invocation = invocation;
    rec.insts = n;
    rec.detailed = detailed;

    if (hServiceInsts_)
        hServiceInsts_->observe(n);

    if (detailed) {
        ++totals_.osSimulated;
        ++svc.simulated;
        svc.cycles += sim_cycles;
        rec.cycles = sim_cycles;
        rec.mem = mem_delta;
        if (cServicesDetailed_)
            cServicesDetailed_->inc();
        trace(obs::TraceEventKind::ServiceDetailed,
              static_cast<std::uint8_t>(type_idx), n, sim_cycles);
    } else {
        ++totals_.osPredicted;
        ++svc.predicted;
        totals_.osPredInsts += n;
        totals_.osPredCycles += pred.cycles;
        totals_.predictedMem += pred.mem;
        svc.cycles += pred.cycles;
        rec.cycles = pred.cycles;
        rec.mem = pred.mem;
        if (cServicesPredicted_)
            cServicesPredicted_->inc();
        trace(obs::TraceEventKind::ServicePredicted,
              static_cast<std::uint8_t>(type_idx), n, pred.cycles);
        // Model the skipped service's displacement of cached state
        // (Sec. 4.5 and DESIGN.md).
        if (usesCaches(config_.level)) {
            std::uint64_t requested = pred.mem.l1iMisses +
                                      pred.mem.l1dMisses +
                                      pred.mem.l2Misses;
            std::uint64_t affected = 0;
            switch (config_.pollutionPolicy) {
              case PollutionPolicy::None:
                requested = 0;
                break;
              case PollutionPolicy::PaperInvalidateApp:
                affected = hier.pollute(
                    pred.mem.l1iMisses, pred.mem.l1dMisses,
                    pred.mem.l2Misses,
                    Cache::PollutionMode::InvalidateApp);
                break;
              case PollutionPolicy::InvalidateAny:
                affected = hier.pollute(
                    pred.mem.l1iMisses, pred.mem.l1dMisses,
                    pred.mem.l2Misses,
                    Cache::PollutionMode::InvalidateAny);
                break;
              case PollutionPolicy::SyntheticInstall:
                affected = hier.pollute(
                    pred.mem.l1iMisses, pred.mem.l1dMisses,
                    pred.mem.l2Misses,
                    Cache::PollutionMode::Install);
                break;
              case PollutionPolicy::Footprint:
                {
                    // First pass: install the sampled real
                    // footprint, so the skipped service's own hot
                    // state stays resident. Installs that find the
                    // line already cached displace nothing, so a
                    // second pass injects synthetic displacement for
                    // whatever remains of the predicted miss counts.
                    // Data before code: both go through the
                    // shared L2, so the order is part of the result.
                    gen.drawFootprint(
                        std::min<std::uint64_t>(pred.mem.l1dMisses,
                                                kFootprintDataCap),
                        std::min<std::uint64_t>(pred.mem.l1iMisses,
                                                kFootprintCodeCap),
                        dataSample, codeSample);
                    auto data = hier.installFootprint(
                        dataSample, pred.mem.l1dMisses, false,
                        Owner::Os);
                    auto code = hier.installFootprint(
                        codeSample, pred.mem.l1iMisses, true,
                        Owner::Os);
                    std::uint64_t l2_fills =
                        data.l2Fills + code.l2Fills;
                    auto rest = [](std::uint64_t want,
                                   std::uint64_t got) {
                        return want > got ? want - got : 0;
                    };
                    std::uint64_t fills =
                        code.l1Fills + data.l1Fills + l2_fills;
                    if (cFootprintFills_)
                        cFootprintFills_->inc(fills);
                    affected = fills + hier.pollute(
                        rest(pred.mem.l1iMisses, code.l1Fills),
                        rest(pred.mem.l1dMisses, data.l1Fills),
                        rest(pred.mem.l2Misses, l2_fills),
                        Cache::PollutionMode::Install);
                }
                break;
            }
            if (requested) {
                if (cPollutionRequested_)
                    cPollutionRequested_->inc(requested);
                if (cPollutionAffected_)
                    cPollutionAffected_->inc(affected);
                trace(obs::TraceEventKind::Pollution,
                      static_cast<std::uint8_t>(type_idx),
                      requested, affected);
            }
        }
    }

    if (config_.recordIntervals)
        intervals_.push_back(rec);

    lastServiceResult = result;
}

template <class EngineT>
const RunTotals &
Machine::runLoop(EngineT *eng, InstCount max_insts, bool warmup_only)
{
    constexpr bool timing =
        !std::is_same_v<EngineT, EmulateEngine>;

    warmupDone = !workload_->inWarmup();
    if (warmup_only && warmupDone)
        return totals_;

    const bool app_only = config_.appOnly;
    MicroOp buf[kMaxBlockOps];

    // Direct-mapped memo of pages already known resident. Sound
    // because KernelIface guarantees a page never becomes absent
    // once touched, so skipping a repeat touchUserPage() skips only
    // a guaranteed-false virtual call. ~0 can never equal a real
    // addr >> 12 (addresses are far below 2^48).
    constexpr std::size_t kPageMemoSlots = 256;
    constexpr unsigned kPageShift = 12;
    static_assert((Addr(1) << kPageShift) ==
                  KernelIface::kUserPageBytes);
    Addr page_memo[kPageMemoSlots];
    for (Addr &slot : page_memo)
        slot = ~Addr(0);

    // Earliest pending interrupt: polled per instruction only once
    // the retired count reaches it, refreshed after every service
    // invocation (which may schedule earlier events). The default
    // KernelIface hint of 0 degenerates to the poll-every-op
    // behaviour this loop replaced.
    constexpr InstCount kNever = ~InstCount(0);
    InstCount irq_due = kNever;
    auto refreshIrq = [&] {
        if (!app_only && kernel_)
            irq_due = kernel_->nextInterruptAt();
    };
    refreshIrq();

    // Stratified-sampling support: with a profiler (Phase 1) or a
    // sample plan (Phase 2) attached, retirement chunks are
    // additionally cut at fixed-length app-instruction interval
    // edges so every chunk lies inside one interval. Detached (the
    // common case) this costs one predictable test per chunk and
    // nothing per op.
    const InstCount interval_len =
        samplePlan_ ? samplePlan_->intervalLen
                    : (profiler_ ? profiler_->intervalLen() : 0);
    constexpr std::uint64_t kNoInterval = ~std::uint64_t(0);
    std::uint64_t cur_interval = kNoInterval;
    Cycles interval_cycles0 = 0;
    InstCount interval_insts0 = 0;
    Addr warm_fetch_line = ~Addr(0);
    sampleLog_.clear();

    MicroOp op;
    ServiceRequest req;
    while (!programDone) {
        if (max_insts && totals_.totalInsts() >= max_insts)
            break;

        if (!warmupDone && !workload_->inWarmup()) {
            // Warm-up just ended: functional state (page cache,
            // sockets, predictor-visible history) is warm; discard
            // the statistics gathered so far. (Warm-up state only
            // changes when the workload's state machine advances —
            // never inside a fetched block — so checking at block
            // granularity is exact.)
            warmupDone = true;
            totals_ = RunTotals();
            intervals_.clear();
            if (profiler_)
                profiler_->reset();
            sampleLog_.clear();
            cur_interval = kNoInterval;
            if (warmup_only)
                return totals_;
        }

        // Fetch a block of queued user compute; fall back to
        // step() for syscalls, completion and non-batching
        // programs. A block no timing engine will execute — in an
        // Emulate-level run, during warm-up, or in a fast-forwarded
        // interval (capped at the interval's edge, so it never
        // reaches the next, possibly sampled, one) — is lowered
        // lean: everything that reads it (page faults, the
        // profiler, warmOp) uses only pc, cls, effAddr and taken.
        bool lean = !timing || !warmupDone;
        std::size_t cap = kMaxBlockOps;
        if (!lean && samplePlan_ && interval_len &&
            !samplePlan_->sampled(totals_.appInsts / interval_len)) {
            lean = true;
            cap = static_cast<std::size_t>(std::min<InstCount>(
                cap, interval_len - totals_.appInsts % interval_len));
        }
        std::size_t n = lean ? workload_->opBlockLean(buf, cap)
                             : workload_->opBlock(buf, cap);
        if (n == 0) {
            UserProgram::Step s = workload_->step(op, req);
            if (s == UserProgram::Step::Done) {
                programDone = true;
                break;
            }
            if (s != UserProgram::Step::Op) {
                if (app_only) {
                    ServiceResult res =
                        kernel_
                            ? kernel_->invoke(req.type, req.args,
                                              totals_.totalInsts(),
                                              nullptr)
                            : ServiceResult();
                    workload_->onServiceReturn(req.type, res);
                } else {
                    runServiceT(eng, req);
                    workload_->onServiceReturn(req.type,
                                               lastServiceResult);
                    deliverInterruptsT(eng);
                    refreshIrq();
                }
                continue;
            }
            buf[0] = op;
            n = 1;
        }

        if constexpr (!timing) {
            if (app_only) {
                // Pure emulation with no kernel: whole-block
                // retirement — no faults, no interrupts, no timing
                // models. Clamp so the retired count never passes
                // max_insts (the per-op loop stopped exactly there).
                std::size_t take = n;
                if (max_insts) {
                    InstCount room =
                        max_insts - totals_.totalInsts();
                    take = static_cast<std::size_t>(
                        std::min<InstCount>(take, room));
                }
                totals_.appInsts += take;
                continue;
            }
        }

        // Retire the block in chunks whose boundaries are the next
        // interrupt-due point and the max_insts cap, so neither is
        // re-checked per op. Within a chunk the only per-op work is
        // the (memoized) fault check and the engine itself; retired
        // ops accumulate in a local and flush to totals_ at chunk
        // end (and before any service call, which reads the count).
        const bool engine_live = timing && warmupDone;
        std::size_t i = 0;
        while (i < n) {
            const InstCount base = totals_.totalInsts();
            if (i && max_insts && base >= max_insts)
                break;
            bool chunk_live = engine_live;
            [[maybe_unused]] bool warm_ff = false;
            if (interval_len && warmupDone) {
                // Interval bookkeeping at the chunk edge: close a
                // finished sampled interval (drain so its cycle
                // cost is exact) and open the next.
                const std::uint64_t iv =
                    totals_.appInsts / interval_len;
                if (iv != cur_interval) {
                    if (samplePlan_) {
                        if (cur_interval != kNoInterval &&
                            samplePlan_->sampled(cur_interval)) {
                            drainIntoT(eng, Owner::App);
                            sampleLog_.push_back(
                                {cur_interval,
                                 totals_.appCycles -
                                     interval_cycles0,
                                 totals_.appInsts -
                                     interval_insts0});
                        }
                        if (samplePlan_->sampled(iv)) {
                            interval_cycles0 = totals_.appCycles;
                            interval_insts0 = totals_.appInsts;
                        }
                    }
                    cur_interval = iv;
                }
                if (samplePlan_) {
                    chunk_live = engine_live &&
                                 samplePlan_->sampled(cur_interval);
                    warm_ff = timing && warmupDone && !chunk_live;
                }
            }
            InstCount limit = static_cast<InstCount>(n - i);
            if (max_insts)
                limit = std::min(limit, max_insts - base);
            if (interval_len && warmupDone)
                limit = std::min(
                    limit,
                    interval_len - totals_.appInsts % interval_len);
            bool irq_boundary = false;
            if (!app_only) {
                // The op that reaches irq_due triggers delivery
                // *after* it retires; if irq_due is already past
                // (a service landed us beyond it), the next op
                // delivers.
                InstCount until =
                    irq_due > base ? irq_due - base : 1;
                if (until <= limit) {
                    limit = until;
                    irq_boundary = true;
                }
            }
            const std::size_t end =
                i + static_cast<std::size_t>(limit);
            const std::size_t chunk_begin = i;
            InstCount retired = 0;
            bool resync = false;
            for (; i < end; ++i) {
                const MicroOp &o = buf[i];
                if (!app_only && (o.cls == OpClass::Load ||
                                  o.cls == OpClass::Store)) {
                    const Addr page = o.effAddr >> kPageShift;
                    Addr &slot =
                        page_memo[page & (kPageMemoSlots - 1)];
                    if (slot != page) {
                        if (kernel_->touchUserPage(o.effAddr)) {
                            totals_.appInsts += retired;
                            retired = 0;
                            ServiceRequest fault;
                            fault.type = ServiceType::IntPageFault;
                            fault.args.arg0 = o.effAddr;
                            runServiceT(eng, fault);
                            refreshIrq();
                            slot = page;
                            // Retire the faulting op here, then
                            // resync: the service moved the counts,
                            // so the chunk boundaries are stale.
                            if constexpr (timing) {
                                if (chunk_live)
                                    eng->execute(o, Owner::App);
                                else if (warm_ff)
                                    warmOp(o, warm_fetch_line);
                            }
                            ++totals_.appInsts;
                            ++i;
                            if (totals_.totalInsts() >= irq_due) {
                                deliverInterruptsT(eng);
                                refreshIrq();
                            }
                            resync = true;
                            break;
                        }
                        slot = page;
                    }
                }
                if constexpr (timing) {
                    if (chunk_live)
                        eng->execute(o, Owner::App);
                    else if (warm_ff)
                        warmOp(o, warm_fetch_line);
                }
                ++retired;
            }
            if (profiler_ && warmupDone && i > chunk_begin)
                profiler_->noteOps(cur_interval, buf + chunk_begin,
                                   i - chunk_begin);
            if (resync)
                continue;
            totals_.appInsts += retired;
            if (irq_boundary) {
                deliverInterruptsT(eng);
                refreshIrq();
            }
        }
    }

    if (warmup_only)
        return totals_;

    // Close the last (possibly partial, always-detailed-tail)
    // sampled interval and finalize the profile.
    if (samplePlan_ && warmupDone && cur_interval != kNoInterval &&
        samplePlan_->sampled(cur_interval)) {
        drainIntoT(eng, Owner::App);
        sampleLog_.push_back(
            {cur_interval, totals_.appCycles - interval_cycles0,
             totals_.appInsts - interval_insts0});
    }
    if (profiler_)
        profiler_->finish(totals_.appInsts);
    if (samplePlan_ && cIntervalsSampled_) {
        InstCount detailed = 0;
        for (const IntervalSample &s : sampleLog_)
            detailed += s.appInsts;
        cIntervalsSampled_->inc(sampleLog_.size());
        cSampleDetailedInsts_->inc(detailed);
        cSampleFfInsts_->inc(totals_.appInsts - detailed);
    }

    drainIntoT(eng, Owner::App);
    totals_.measuredMem = hier.counts();
    publishCacheStats();
    if (telemetry_) {
        // Hand the accuracy ledger its error-budget denominator:
        // total simulated time and the predicted share of it.
        telemetry_->accuracy.noteRunTotals(totals_.totalCycles(),
                                           totals_.osPredCycles);
    }
    return totals_;
}

const RunTotals &
Machine::dispatch(InstCount max_insts, bool warmup_only)
{
    // One switch for the whole run: every per-instruction dispatch
    // below this point is on a concrete engine type.
    switch (config_.level) {
      case DetailLevel::InOrderCache:
        return runLoop(&inorder, max_insts, warmup_only);
      case DetailLevel::InOrderNoCache:
        return runLoop(&inorderNoCache, max_insts, warmup_only);
      case DetailLevel::OooCache:
        return runLoop(&ooo, max_insts, warmup_only);
      case DetailLevel::OooNoCache:
        return runLoop(&oooNoCache, max_insts, warmup_only);
      case DetailLevel::Emulate:
        break;
    }
    EmulateEngine none;
    return runLoop(&none, max_insts, warmup_only);
}

const RunTotals &
Machine::run(InstCount max_insts)
{
    if (stage == Stage::Ran)
        osp_panic("Machine::run() may only be called once");
    stage = Stage::Ran;
    return dispatch(max_insts, false);
}

void
Machine::runWarmup()
{
    if (stage != Stage::Fresh)
        osp_panic("Machine::runWarmup() may only be called once, "
                  "before run()");
    stage = Stage::WarmedUp;
    dispatch(0, true);
}

std::unique_ptr<Machine>
Machine::fork(const MachineConfig &config) const
{
    if (stage == Stage::Ran)
        osp_panic("Machine::fork() after run()");
    std::unique_ptr<KernelIface> kernel;
    if (kernel_) {
        kernel = kernel_->clone();
        if (!kernel)
            osp_panic("Machine::fork(): the kernel of '",
                      workload_->name(), "' cannot be copied");
    }
    std::unique_ptr<UserProgram> program =
        workload_->clone(kernel.get());
    if (!program)
        osp_panic("Machine::fork(): program '", workload_->name(),
                  "' cannot be copied");
    auto copy = std::make_unique<Machine>(config, std::move(program),
                                          std::move(kernel));
    copy->serviceGen = serviceGen;
    copy->serviceSeq = serviceSeq;
    copy->invocationIndex = invocationIndex;
    copy->lastServiceResult = lastServiceResult;
    copy->programDone = programDone;
    return copy;
}

} // namespace osp
