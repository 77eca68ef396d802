#include "branch_predictor.hh"

#include "util/logging.hh"

namespace osp
{

GshareBp::GshareBp(std::uint32_t history_bits)
{
    if (history_bits == 0 || history_bits > 24)
        osp_fatal("GshareBp: history bits must be in [1, 24]");
    mask = (1u << history_bits) - 1;
    counters.assign(1u << history_bits, 1);  // weakly not-taken
}

std::uint32_t
GshareBp::index(Addr pc) const
{
    return (static_cast<std::uint32_t>(pc >> 2) ^ history) & mask;
}

bool
GshareBp::predictAndUpdate(Addr pc, bool taken)
{
    std::uint32_t idx = index(pc);
    bool prediction = counters[idx] >= 2;
    bool correct = (prediction == taken);

    if (taken && counters[idx] < 3)
        ++counters[idx];
    else if (!taken && counters[idx] > 0)
        --counters[idx];

    history = ((history << 1) | (taken ? 1u : 0u)) & mask;
    return correct;
}

} // namespace osp
