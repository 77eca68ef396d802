#include "sweep.hh"

#include <algorithm>

#include "util/logging.hh"
#include "workload/registry.hh"

namespace osp
{

const char *
runModeName(RunMode mode)
{
    switch (mode) {
      case RunMode::Full: return "full";
      case RunMode::AppOnly: return "app-only";
      case RunMode::Accelerated: return "accelerated";
      case RunMode::Sampled: return "sampled";
      case RunMode::SampledAccel: return "sampled-accel";
    }
    return "?";
}

bool
isSampledMode(RunMode mode)
{
    return mode == RunMode::Sampled ||
           mode == RunMode::SampledAccel;
}

bool
needsPredictor(RunMode mode)
{
    return mode == RunMode::Accelerated ||
           mode == RunMode::SampledAccel;
}

std::uint64_t
cellSeed(std::uint64_t base_seed, std::uint64_t seed_index)
{
    if (seed_index == 0)
        return base_seed;
    // splitmix64 of (base, index): cheap, full-period, and well
    // decorrelated — each replication gets an independent stream.
    std::uint64_t z =
        base_seed + seed_index * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

namespace
{

void
validateSpec(const SweepSpec &spec)
{
    if (spec.workloads.empty())
        osp_panic("SweepSpec '", spec.name.c_str(),
                  "': no workloads");
    for (const auto &w : spec.workloads) {
        if (!isWorkload(w))
            osp_panic("SweepSpec: unknown workload ", w.c_str());
    }
    if (spec.modes.empty())
        osp_panic("SweepSpec: no run modes");
    if (spec.l2Sizes.empty())
        osp_panic("SweepSpec: no L2 sizes");
    if (spec.numSeeds == 0)
        osp_panic("SweepSpec: numSeeds must be >= 1");
    for (RunMode m : spec.modes) {
        if (needsPredictor(m) &&
            (spec.predictors.empty() || spec.pollution.empty()))
            osp_panic("SweepSpec: Accelerated mode requires at "
                      "least one predictor variant and pollution "
                      "policy");
        if (isSampledMode(m)) {
            if (!spec.sample.enabled)
                osp_panic("SweepSpec: sampled modes require "
                          "sample.enabled");
            if (spec.sample.intervalLen == 0)
                osp_panic("SweepSpec: sample.intervalLen must be "
                          ">= 1");
            if (spec.sample.strata == 0)
                osp_panic("SweepSpec: sample.strata must be >= 1");
            if (!(spec.sample.rate > 0.0) ||
                spec.sample.rate > 1.0)
                osp_panic("SweepSpec: sample.rate must be in "
                          "(0, 1]");
            if (!isDetailed(spec.baseConfig.level))
                osp_panic("SweepSpec: sampled modes require a "
                          "detailed base level");
        }
    }
    if (spec.scale <= 0.0)
        osp_panic("SweepSpec: scale must be positive");
}

} // namespace

void
applySweepSampling(SweepSpec &spec, const SampleParams &params)
{
    spec.sample = params;
    spec.sample.enabled = true;
    auto has = [&](RunMode m) {
        return std::find(spec.modes.begin(), spec.modes.end(), m) !=
               spec.modes.end();
    };
    bool full = has(RunMode::Full);
    bool accel =
        has(RunMode::Accelerated) && !spec.predictors.empty();
    if (full && !has(RunMode::Sampled))
        spec.modes.push_back(RunMode::Sampled);
    if (accel && !has(RunMode::SampledAccel))
        spec.modes.push_back(RunMode::SampledAccel);
}

std::vector<SweepCell>
expandSweep(const SweepSpec &spec)
{
    validateSpec(spec);
    std::vector<SweepCell> cells;
    for (const auto &workload : spec.workloads) {
        for (std::uint64_t l2 : spec.l2Sizes) {
            for (std::uint64_t si = 0; si < spec.numSeeds; ++si) {
                for (RunMode mode : spec.modes) {
                    std::size_t num_pred =
                        needsPredictor(mode)
                            ? spec.predictors.size()
                            : 1;
                    std::size_t num_poll =
                        needsPredictor(mode) ? spec.pollution.size()
                                             : 1;
                    for (std::size_t pi = 0; pi < num_pred; ++pi) {
                        for (std::size_t qi = 0; qi < num_poll;
                             ++qi) {
                            SweepCell c;
                            c.index = cells.size();
                            c.workload = workload;
                            c.mode = mode;
                            c.predictorIndex = pi;
                            c.pollutionIndex = qi;
                            c.l2Bytes = l2;
                            c.seedIndex = si;
                            c.seed =
                                cellSeed(spec.baseSeed, si);
                            cells.push_back(std::move(c));
                        }
                    }
                }
            }
        }
    }
    return cells;
}

} // namespace osp
