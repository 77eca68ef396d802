/**
 * @file
 * Shared scaffolding for the figure/table regeneration benches.
 *
 * Every binary in bench/ regenerates one figure or table of the
 * paper (see DESIGN.md's per-experiment index). A bench whose
 * experiment is a product of runs builds a SweepSpec and runs it
 * with runBenchSweep() on the parallel runner (src/driver); the few
 * the runner cannot express build machines from paperConfig(). Seed
 * and work scales are the driver/experiments.hh constants, so the
 * tables are directly comparable across benches.
 */

#ifndef OSP_BENCH_COMMON_HH
#define OSP_BENCH_COMMON_HH

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "driver/experiments.hh"
#include "util/table.hh"
#include "workload/registry.hh"

namespace osp::bench
{

/** Smoke mode shrinks every bench's work volume by this factor so
 *  CI can execute the binaries in seconds instead of minutes. The
 *  numbers lose paper fidelity; smoke runs exist to prove the
 *  binaries execute and to give CI a diffable artifact. */
inline constexpr double smokeDivisor = 20.0;

/** Mutable smoke state, seeded from OSPREDICT_SMOKE=1. */
inline bool &
smokeFlag()
{
    static bool flag = [] {
        const char *env = std::getenv("OSPREDICT_SMOKE");
        return env && *env && std::strcmp(env, "0") != 0;
    }();
    return flag;
}

/** True when smoke mode is active (--smoke or OSPREDICT_SMOKE=1). */
inline bool smokeMode() { return smokeFlag(); }

/** Multiplier applied to every work-volume scale. */
inline double
smokeFactor()
{
    return smokeMode() ? 1.0 / smokeDivisor : 1.0;
}

/** A bench scale with smoke shrinking applied. */
inline double scaled(double scale) { return scale * smokeFactor(); }

/**
 * Standard bench argument handling: `--smoke` enables smoke mode
 * (equivalent to OSPREDICT_SMOKE=1). Unknown arguments are left for
 * the bench's own parsing. Call first thing in main().
 */
inline void
init(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smokeFlag() = true;
    }
}

/** Value of `--threads N` (0 = one worker per core). A missing
 *  value, or one that is not a whole non-negative number, exits 2,
 *  as `sweep` does. */
inline unsigned
threadArg(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") != 0)
            continue;
        const char *v = i + 1 < argc ? argv[i + 1] : "";
        const char *end = v + std::strlen(v);
        unsigned n = 0;
        auto [ptr, ec] = std::from_chars(v, end, n);
        if (ec != std::errc() || ptr != end) {
            std::cerr << argv[0] << ": bad value '" << v
                      << "' for --threads\n";
            std::exit(2);
        }
        return n;
    }
    return 0;
}

/** The paper's machine (Sec. 5.1) at the documented seed. */
inline MachineConfig
paperConfig()
{
    MachineConfig cfg;
    cfg.seed = experimentSeed;
    return cfg;
}

/** A sweep of @p workloads at the documented seed and work
 *  @p scale (smoke shrinking applied), over the runner's default
 *  axes: Full and Accelerated, footprint pollution, 1MB L2. */
inline SweepSpec
benchSweep(const std::string &name,
           std::vector<std::string> workloads, double scale)
{
    SweepSpec spec;
    spec.name = name;
    spec.workloads = std::move(workloads);
    spec.baseSeed = experimentSeed;
    spec.scale = scaled(scale);
    return spec;
}

/**
 * Run a bench's sweep, labelled with the smoke mode, on `--threads
 * N` workers (default: one per core). A cell that failed would print
 * rows from zeroed totals, so any failure is named on stderr and the
 * bench exits 1.
 */
inline SweepResult
runBenchSweep(SweepSpec spec, int argc, char **argv,
              const std::map<std::string, std::string>
                  *warm_profiles = nullptr)
{
    spec.smoke = smokeMode();
    RunnerOptions opts;
    opts.threads = threadArg(argc, argv);
    opts.warmProfiles = warm_profiles;
    SweepResult result = runSweep(spec, opts);
    bool failed = false;
    for (const CellResult &r : result.cells) {
        if (!r.failed)
            continue;
        std::cerr << spec.name << ": cell " << r.cell.index << " ("
                  << r.cell.workload << " "
                  << runModeName(r.cell.mode)
                  << ") failed: " << r.error << "\n";
        failed = true;
    }
    if (failed)
        std::exit(1);
    return result;
}

/** Standard bench banner: figure id, description, seed. */
inline void
banner(const std::string &experiment, const std::string &what)
{
    std::cout << "==== " << experiment << ": " << what << " ====\n"
              << "(seed " << experimentSeed
              << "; paper machine: 4GHz 4-wide OOO, 126-entry "
                 "window, 16KB L1I/L1D, 1MB 8-way L2 unless "
                 "stated)\n";
    if (smokeMode())
        std::cout << "(SMOKE MODE: work volume / "
                  << smokeDivisor
                  << " — numbers are not paper-comparable)\n";
    std::cout << "\n";
}

/** Print the paper's reference values next to ours. */
inline void
paperNote(const std::string &note)
{
    std::cout << "\npaper reference: " << note << "\n\n";
}

} // namespace osp::bench

#endif // OSP_BENCH_COMMON_HH
