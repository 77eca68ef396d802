/**
 * @file
 * Named sweeps and the shared experiment constants.
 *
 * The named sweeps (Fig. 8, Fig. 10, Fig. 11, Table 2, Fig. 13) are
 * what the `sweep` CLI runs. Each factory returns the exact
 * configuration the corresponding bench/ binary historically ran
 * serially — same workloads, seed, predictor parameters and work
 * scale — so the runner's aggregated numbers reproduce
 * EXPERIMENTS.md bit-for-bit while the cells execute in parallel.
 * The other runner benches (Figs. 1, 2, 9, 12, the ablations and
 * ext1) build their specs from these constants and factories in
 * bench/: fig09 runs table2Sweep's cells, fig12 the same at three
 * L2 sizes. Tests use the same factories to pin the spec shapes.
 */

#ifndef OSP_DRIVER_EXPERIMENTS_HH
#define OSP_DRIVER_EXPERIMENTS_HH

#include <string>
#include <vector>

#include "sweep.hh"

namespace osp
{

/** The replay seed every documented experiment uses. */
inline constexpr std::uint64_t experimentSeed = 42;

/** Work-volume scale for accuracy experiments. 2.0 gives
 *  per-service invocation counts closer to the paper's
 *  multi-thousand range. */
inline constexpr double experimentAccuracyScale = 2.0;

/** Work-volume scale for characterization/shape experiments. */
inline constexpr double experimentShapeScale = 1.0;

/** Sampling parameters for the Fig. 13 composition experiment.
 *  The interval length is quoted at scale 1.0 and shrinks with the
 *  sweep's work scale so interval counts stay comparable. */
inline constexpr std::uint64_t experimentSampleIntervalLen = 20000;
inline constexpr std::uint32_t experimentSampleStrata = 4;
inline constexpr double experimentSampleRate = 0.15;
/** Floor on fig13's scale multiplier: below this the predictor
 *  cannot mature inside the run and the composed corner collapses
 *  to sampling alone (smoke passes 1/20; fig13 runs at 1/4). */
inline constexpr double experimentSampleMinScaleMult = 0.25;

/** The paper's predictor configuration (Sec. 4.3-4.4 defaults:
 *  pmin 3%, DoC 95% -> window 100), with a chosen strategy. */
PredictorParams
experimentPredictor(RelearnStrategy strategy =
                        RelearnStrategy::Statistical);

/**
 * Figure 8: App+OS Pred and App-Only vs full-system, OS-intensive
 * set, Statistical strategy. 15 cells at scale_mult 1.
 */
SweepSpec fig08Sweep(double scale_mult = 1.0);

/**
 * Figure 10: the 1MB-over-512KB L2 speedup under App-Only, App+OS
 * and App+OS Pred. 30 cells.
 */
SweepSpec fig10Sweep(double scale_mult = 1.0);

/**
 * Figure 11: the four re-learning strategies (audits off) plus the
 * repository default (Statistical + audits). 30 cells.
 */
SweepSpec fig11Sweep(double scale_mult = 1.0);

/** Table 2: full-detail baseline vs accelerated run per workload
 *  (Eq. 10 inputs and wall-clock numerator/denominator). */
SweepSpec table2Sweep(double scale_mult = 1.0);

/**
 * Figure 13 (extension): stratified interval sampling composed with
 * OS-service prediction. Per workload: full-detail oracle, the
 * predictor-only run, the sample-only run and the combined run, so
 * the composed shrink of detailed-simulation work can be measured
 * against its two ingredients. 20 cells.
 */
SweepSpec fig13Sweep(double scale_mult = 1.0);

/** Names accepted by makeNamedSweep(), in display order. */
const std::vector<std::string> &namedSweeps();

/**
 * Build a named sweep. @p scale_mult multiplies the experiment's
 * native work scale (smoke runs pass ~1/20); @p smoke labels the
 * result set accordingly.
 */
SweepSpec makeNamedSweep(const std::string &name,
                         double scale_mult = 1.0,
                         bool smoke = false);

} // namespace osp

#endif // OSP_DRIVER_EXPERIMENTS_HH
