/**
 * @file
 * A gshare dynamic branch predictor.
 *
 * The processor model of Sec. 5.1 has a 10-cycle misprediction
 * penalty; what fraction of branches pay it must come from a real
 * predictor, because OS code is characteristically branchier and
 * less predictable than application loops and that difference is a
 * large part of why OS IPC is low (Fig. 3b).
 */

#ifndef OSP_SIM_BRANCH_PREDICTOR_HH
#define OSP_SIM_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace osp
{

/**
 * Gshare: a table of 2-bit saturating counters indexed by
 * (pc ^ global history).
 */
class GshareBp
{
  public:
    /** @param history_bits global-history length; the table has
     *  2^history_bits counters. */
    explicit GshareBp(std::uint32_t history_bits = 12);

    /**
     * Update with the architectural outcome and return whether the
     * prediction (made with the pre-update state) was correct.
     */
    bool predictAndUpdate(Addr pc, bool taken);

  private:
    std::uint32_t index(Addr pc) const;

    std::uint32_t mask;
    std::uint32_t history = 0;
    std::vector<std::uint8_t> counters;
};

} // namespace osp

#endif // OSP_SIM_BRANCH_PREDICTOR_HH
