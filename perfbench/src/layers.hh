/**
 * @file
 * Per-layer attribution from outside the simulator.
 *
 * The traced run builds each cell's machine from public headers and
 * wraps the three interfaces the Machine binds together
 * (UserProgram, KernelIface, ServiceController) in forwarding
 * decorators that time every call. Nothing inside src/ reads a
 * clock: a layer's time is the sum of the spans of the calls into
 * it, and the simulator's own time ("sim") is Machine::run's wall
 * minus the wrapped layers, which never nest inside each other.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "driver/sweep.hh"
#include "sim/machine.hh"

namespace perfbench
{

/** Seconds on the monotonic clock. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Time and work charged to each wrapped layer. */
struct LayerProbe
{
    double workloadS = 0.0;   //!< UserProgram calls
    double invokeS = 0.0;     //!< KernelIface::invoke
    double irqS = 0.0;        //!< pendingInterrupt + touchUserPage
    double coreS = 0.0;       //!< ServiceController calls
    double runS = 0.0;        //!< Machine::run walls
    double profileS = 0.0;    //!< sampling phase-1 runs
    double stratifyS = 0.0;   //!< stratify + draw + estimate
    std::uint64_t ops = 0;          //!< user ops produced
    std::uint64_t invokeCalls = 0;
    std::uint64_t decisions = 0;    //!< chooseLevel calls
    std::uint64_t predicted = 0;    //!< ... that chose Emulate
    std::uint64_t runs = 0;         //!< Machine::run calls
    std::uint64_t runsDone = 0;     //!< ... whose program finished

    /** Machine::run time not spent in a wrapped layer. */
    double
    simSelfS() const
    {
        return runS - workloadS - invokeS - irqS - coreS;
    }

    LayerProbe &operator+=(const LayerProbe &o);
};

/** App instructions a SPEC-like program retires in its measured
 *  phase at @p scale: the volume makeMachine() asks for. */
osp::InstCount specMeasureOps(double scale);

/**
 * The machine makeMachine() builds for @p name, assembled from the
 * public workload and kernel headers. With @p probe set, the program
 * and kernel are wrapped and charge their calls to it, and @p done
 * (if set) turns true when the program reports it has finished.
 */
std::unique_ptr<osp::Machine>
buildMachine(const std::string &name, const osp::MachineConfig &cfg,
             double scale, LayerProbe *probe, bool *done = nullptr);

/**
 * runCell() rebuilt on buildMachine(): the same configuration,
 * controller and two-phase sampling steps, with every layer charged
 * to @p probe (null: unwrapped, for the fidelity test). With a probe,
 * throws when a machine stops before its program finishes.
 */
osp::CellResult runCellTraced(const osp::SweepSpec &spec,
                              const osp::SweepCell &cell,
                              LayerProbe *probe);

/** Bit-for-bit equality of two runs' totals. */
bool sameTotals(const osp::RunTotals &a, const osp::RunTotals &b);

/** sameTotals plus the sampled estimate, when there is one. */
bool sameResult(const osp::CellResult &a, const osp::CellResult &b);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
