#include "layers.hh"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/accelerator.hh"
#include "os/kernel.hh"
#include "sim/interval_profile.hh"
#include "stats/stratify.hh"
#include "workload/netbench.hh"
#include "workload/registry.hh"
#include "workload/spec_like.hh"
#include "workload/unix_tools.hh"
#include "workload/webserver.hh"

namespace perfbench
{

using namespace osp;

LayerProbe &
LayerProbe::operator+=(const LayerProbe &o)
{
    workloadS += o.workloadS;
    invokeS += o.invokeS;
    irqS += o.irqS;
    coreS += o.coreS;
    runS += o.runS;
    profileS += o.profileS;
    stratifyS += o.stratifyS;
    ops += o.ops;
    invokeCalls += o.invokeCalls;
    decisions += o.decisions;
    predicted += o.predicted;
    runs += o.runs;
    runsDone += o.runsDone;
    return *this;
}

namespace
{

/** Charges every call into the guest program to LayerProbe. */
class TracedProgram : public UserProgram
{
  public:
    TracedProgram(std::unique_ptr<UserProgram> inner, LayerProbe &probe,
                  bool *done)
        : inner_(std::move(inner)), probe_(probe), done_(done)
    {
    }

    Step
    step(MicroOp &op, ServiceRequest &req) override
    {
        double t0 = nowSeconds();
        Step s = inner_->step(op, req);
        probe_.workloadS += nowSeconds() - t0;
        if (s == Step::Op)
            ++probe_.ops;
        else if (s == Step::Done && done_)
            *done_ = true;
        return s;
    }

    std::size_t
    opBlock(MicroOp *buf, std::size_t cap) override
    {
        double t0 = nowSeconds();
        std::size_t n = inner_->opBlock(buf, cap);
        probe_.workloadS += nowSeconds() - t0;
        probe_.ops += n;
        return n;
    }

    void
    onServiceReturn(ServiceType type, ServiceResult result) override
    {
        double t0 = nowSeconds();
        inner_->onServiceReturn(type, result);
        probe_.workloadS += nowSeconds() - t0;
    }

    bool inWarmup() const override { return inner_->inWarmup(); }
    const char *name() const override { return inner_->name(); }

  private:
    std::unique_ptr<UserProgram> inner_;
    LayerProbe &probe_;
    bool *done_;
};

/** Charges every call into the guest kernel to LayerProbe. */
class TracedKernel : public KernelIface
{
  public:
    TracedKernel(std::unique_ptr<KernelIface> inner, LayerProbe &probe)
        : inner_(std::move(inner)), probe_(probe)
    {
    }

    ServiceResult
    invoke(ServiceType type, const SyscallArgs &args, InstCount now,
           CodeGenerator *gen) override
    {
        double t0 = nowSeconds();
        ServiceResult r = inner_->invoke(type, args, now, gen);
        probe_.invokeS += nowSeconds() - t0;
        ++probe_.invokeCalls;
        return r;
    }

    std::optional<ServiceRequest>
    pendingInterrupt(InstCount now) override
    {
        double t0 = nowSeconds();
        std::optional<ServiceRequest> r = inner_->pendingInterrupt(now);
        probe_.irqS += nowSeconds() - t0;
        return r;
    }

    InstCount
    nextInterruptAt() const override
    {
        return inner_->nextInterruptAt();
    }

    bool
    touchUserPage(Addr addr) override
    {
        double t0 = nowSeconds();
        bool r = inner_->touchUserPage(addr);
        probe_.irqS += nowSeconds() - t0;
        return r;
    }

  private:
    std::unique_ptr<KernelIface> inner_;
    LayerProbe &probe_;
};

/** Charges every call into the prediction engine to LayerProbe. */
class TracedController : public ServiceController
{
  public:
    TracedController(ServiceController &inner, LayerProbe &probe)
        : inner_(inner), probe_(probe)
    {
    }

    bool wantsOpMix() const override { return inner_.wantsOpMix(); }

    DetailLevel
    chooseLevel(ServiceType type) override
    {
        double t0 = nowSeconds();
        DetailLevel level = inner_.chooseLevel(type);
        probe_.coreS += nowSeconds() - t0;
        ++probe_.decisions;
        if (!isDetailed(level))
            ++probe_.predicted;
        return level;
    }

    Prediction
    onServiceEnd(const IntervalOutcome &outcome) override
    {
        double t0 = nowSeconds();
        Prediction p = inner_.onServiceEnd(outcome);
        probe_.coreS += nowSeconds() - t0;
        return p;
    }

  private:
    ServiceController &inner_;
    LayerProbe &probe_;
};

std::uint32_t
scaled(std::uint32_t base, double scale)
{
    auto v = static_cast<std::uint32_t>(static_cast<double>(base) *
                                        scale);
    return std::max<std::uint32_t>(v, 1);
}

/** The workload half of makeMachine(): the same parameters, which
 *  the fidelity test holds to workload/registry.cc. */
std::unique_ptr<UserProgram>
buildProgram(const std::string &name, SyntheticKernel &kernel,
             double scale, std::uint64_t seed)
{
    if (name == "ab-rand" || name == "ab-seq") {
        AbParams p;
        p.sequential = (name == "ab-seq");
        p.warmupRequests = scaled(40, scale);
        p.measureRequests = scaled(p.sequential ? 200 : 100, scale);
        return std::make_unique<AbWorkload>(kernel, p, seed);
    }
    if (name == "du") {
        UnixToolParams p;
        p.warmupDirs = scaled(10, scale);
        p.maxDirs = scaled(150, scale);
        return std::make_unique<DuWorkload>(kernel, p, seed);
    }
    if (name == "find-od") {
        UnixToolParams p;
        p.warmupDirs = scaled(4, scale);
        p.maxDirs = scaled(48, scale);
        return std::make_unique<FindOdWorkload>(kernel, p, seed);
    }
    if (name == "iperf") {
        IperfParams p;
        p.warmupWrites = scaled(200, scale);
        p.measureWrites = scaled(1200, scale);
        return std::make_unique<IperfWorkload>(kernel, p, seed);
    }
    SpecParams p;
    if (name == "gzip")
        p.variant = SpecVariant::Gzip;
    else if (name == "swim")
        p.variant = SpecVariant::Swim;
    else
        throw std::invalid_argument("perfbench: cannot build program " +
                                    name);
    p.warmupOps = 2000000;
    p.measureOps = specMeasureOps(scale);
    return std::make_unique<SpecWorkload>(kernel, p, seed);
}

/** Machine::run, timed and checked for a finished program. */
const RunTotals &
runMachine(Machine &machine, LayerProbe *probe, const bool &done)
{
    if (!probe)
        return machine.run();
    double t0 = nowSeconds();
    const RunTotals &totals = machine.run();
    probe->runS += nowSeconds() - t0;
    ++probe->runs;
    if (!done)
        throw std::runtime_error(std::string("perfbench: ") +
                                 machine.workload().name() +
                                 " stopped before its program finished");
    ++probe->runsDone;
    return totals;
}

} // namespace

InstCount
specMeasureOps(double scale)
{
    return static_cast<InstCount>(4000000 * scale);
}

std::unique_ptr<Machine>
buildMachine(const std::string &name, const MachineConfig &cfg,
             double scale, LayerProbe *probe, bool *done)
{
    auto kernel = std::make_unique<SyntheticKernel>(
        kernelParamsFor(name, cfg.seed));
    std::unique_ptr<UserProgram> program =
        buildProgram(name, *kernel, scale, cfg.seed);
    if (!probe)
        return std::make_unique<Machine>(cfg, std::move(program),
                                         std::move(kernel));
    return std::make_unique<Machine>(
        cfg,
        std::make_unique<TracedProgram>(std::move(program), *probe,
                                        done),
        std::make_unique<TracedKernel>(std::move(kernel), *probe));
}

CellResult
runCellTraced(const SweepSpec &spec, const SweepCell &cell,
              LayerProbe *probe)
{
    MachineConfig cfg = spec.baseConfig;
    cfg.seed = cell.seed;
    cfg.hier.l2.sizeBytes = cell.l2Bytes;
    cfg.appOnly = (cell.mode == RunMode::AppOnly);

    CellResult result;
    result.cell = cell;
    obs::Telemetry telemetry(0);

    bool predicts = cell.mode == RunMode::Accelerated ||
                    cell.mode == RunMode::SampledAccel;
    if (predicts)
        cfg.pollutionPolicy = spec.pollution[cell.pollutionIndex];
    Accelerator accel(predicts
                          ? spec.predictors[cell.predictorIndex].params
                          : PredictorParams{});
    std::optional<TracedController> traced;
    ServiceController *controller = nullptr;
    if (predicts) {
        accel.setTelemetry(&telemetry);
        controller = &accel;
        if (probe)
            controller = &traced.emplace(accel, *probe);
    }

    double start = nowSeconds();
    const SampleParams &sp = spec.sample;
    StratifyParams stp;
    StrataAssignment strata;
    SamplePlan plan;
    bool sampled = isSampledMode(cell.mode);
    if (sampled) {
        // Phase 1: profile in pure emulation, no controller.
        IntervalProfiler profiler(sp.intervalLen);
        {
            MachineConfig p1 = cfg;
            p1.level = DetailLevel::Emulate;
            bool done = false;
            auto machine =
                buildMachine(cell.workload, p1, spec.scale, probe, &done);
            machine->setIntervalProfiler(&profiler);
            double t0 = nowSeconds();
            runMachine(*machine, probe, done);
            if (probe)
                probe->profileS += nowSeconds() - t0;
        }
        stp.strata = sp.strata;
        stp.rate = sp.rate;
        stp.allocation = sp.allocation;
        stp.seed = cell.seed;
        std::vector<std::vector<double>> features =
            profiler.featureMatrix();
        std::vector<double> cost = profiler.costProxy();
        double t0 = nowSeconds();
        strata = stratifyIntervals(features, stp);
        std::vector<std::uint64_t> picks =
            drawStratifiedSample(strata, stp, cost);
        if (probe)
            probe->stratifyS += nowSeconds() - t0;
        plan.intervalLen = sp.intervalLen;
        plan.fullIntervals = profiler.fullIntervals();
        plan.sampledMask.assign(
            static_cast<std::size_t>(plan.fullIntervals), 0);
        for (std::uint64_t idx : picks)
            plan.sampledMask[static_cast<std::size_t>(idx)] = 1;
    }

    bool done = false;
    auto machine =
        buildMachine(cell.workload, cfg, spec.scale, probe, &done);
    if (sampled)
        machine->setSamplePlan(&plan);
    machine->setTelemetry(&telemetry);
    machine->setController(controller);
    result.totals = runMachine(*machine, probe, done);
    if (predicts) {
        result.stats = accel.aggregateStats();
        result.hasStats = true;
        std::ostringstream profile;
        accel.saveState(profile);
        result.pltProfile = profile.str();
    }

    if (sampled) {
        double t0 = nowSeconds();
        std::vector<std::uint64_t> idxs;
        std::vector<double> vals;
        Cycles tail_cycles = 0;
        InstCount tail_insts = 0;
        InstCount detailed_app = 0;
        for (const IntervalSample &s : machine->sampleLog()) {
            detailed_app += s.appInsts;
            if (s.index < plan.fullIntervals) {
                idxs.push_back(s.index);
                vals.push_back(static_cast<double>(s.appCycles));
            } else {
                tail_cycles += s.appCycles;
                tail_insts += s.appInsts;
            }
        }
        StratifiedEstimate est =
            estimateStratifiedTotal(strata, idxs, vals);
        if (probe)
            probe->stratifyS += nowSeconds() - t0;

        CellSampleSection &sec = result.sample;
        sec.present = true;
        sec.intervalLen = sp.intervalLen;
        sec.numIntervals = plan.fullIntervals;
        sec.numStrata = strata.numStrata;
        sec.sampledIntervals = idxs.size();
        sec.tailInsts = tail_insts;
        sec.tailCycles = tail_cycles;
        sec.detailedAppInsts = detailed_app;
        sec.ffAppInsts = result.totals.appInsts - detailed_app;
        sec.estAppCycles = est.total + static_cast<double>(tail_cycles);
        sec.estTotalCycles =
            sec.estAppCycles +
            static_cast<double>(result.totals.osSimCycles +
                                result.totals.osPredCycles);
        sec.ciHalfWidth = est.ci95Half;
        sec.df = est.df;
        sec.hasCi = est.hasCi;
        InstCount total_insts = result.totals.totalInsts();
        InstCount detailed_insts =
            detailed_app +
            (result.totals.osInsts - result.totals.osPredInsts);
        sec.detailedFraction =
            total_insts ? static_cast<double>(detailed_insts) /
                              static_cast<double>(total_insts)
                        : 0.0;
        sec.strata = est.strata;
    }
    result.wallSeconds = nowSeconds() - start;
    result.telemetry = telemetry.registry.snapshot();
    result.traceInfo = obs::summarize(telemetry.tracer);
    result.accuracy = telemetry.accuracy.snapshot();
    return result;
}

namespace
{

bool
sameMem(const HierarchyCounts &a, const HierarchyCounts &b)
{
    return a.l1iAccesses == b.l1iAccesses && a.l1iMisses == b.l1iMisses &&
           a.l1dAccesses == b.l1dAccesses && a.l1dMisses == b.l1dMisses &&
           a.l2Accesses == b.l2Accesses && a.l2Misses == b.l2Misses;
}

} // namespace

bool
sameTotals(const RunTotals &a, const RunTotals &b)
{
    if (a.appInsts != b.appInsts || a.osInsts != b.osInsts ||
        a.osPredInsts != b.osPredInsts || a.appCycles != b.appCycles ||
        a.osSimCycles != b.osSimCycles ||
        a.osPredCycles != b.osPredCycles ||
        a.osInvocations != b.osInvocations ||
        a.osSimulated != b.osSimulated ||
        a.osPredicted != b.osPredicted ||
        !sameMem(a.measuredMem, b.measuredMem) ||
        !sameMem(a.predictedMem, b.predictedMem))
        return false;
    for (std::size_t i = 0; i < a.perService.size(); ++i) {
        const ServiceTotals &x = a.perService[i];
        const ServiceTotals &y = b.perService[i];
        if (x.invocations != y.invocations ||
            x.simulated != y.simulated || x.predicted != y.predicted ||
            x.insts != y.insts || x.cycles != y.cycles)
            return false;
    }
    return true;
}

bool
sameResult(const CellResult &a, const CellResult &b)
{
    if (!sameTotals(a.totals, b.totals) ||
        a.sample.present != b.sample.present)
        return false;
    if (!a.sample.present)
        return true;
    // Bitwise: the estimate is the same arithmetic on the same
    // samples, so even the floating-point results must agree.
    return a.sample.estTotalCycles == b.sample.estTotalCycles &&
           a.sample.ciHalfWidth == b.sample.ciHalfWidth &&
           a.sample.detailedAppInsts == b.sample.detailedAppInsts &&
           a.sample.sampledIntervals == b.sample.sampledIntervals;
}

} // namespace perfbench
