/**
 * @file
 * Parameters and helpers shared by the CPU timing models.
 *
 * The simulator supports the same detail levels the paper measures
 * in Table 1 — in-order or out-of-order core, with or without the
 * cache model attached — plus pure functional emulation. All timing
 * models consume MicroOps one at a time and account cycles against
 * an *interval* that the Machine opens and drains at every
 * user/kernel mode switch; a mode switch serializes the pipeline,
 * which is architecturally faithful (syscall/iret are serializing on
 * x86) and gives each OS-service interval a well-defined cycle cost.
 * There is no common base class: the Machine's run loop is a
 * template instantiated per concrete model, so every call is direct.
 */

#ifndef OSP_SIM_CPU_HH
#define OSP_SIM_CPU_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "branch_predictor.hh"
#include "mem/hierarchy.hh"
#include "microop.hh"
#include "util/types.hh"

namespace osp
{

/** Core parameters; defaults follow Sec. 5.1 (Pentium-4-like). */
struct CpuParams
{
    std::uint32_t issueWidth = 4;       //!< fetch/issue width
    std::uint32_t retireWidth = 3;      //!< commit width
    std::uint32_t windowSize = 126;     //!< in-flight instructions
    Cycles mispredictPenalty = 10;
    std::uint32_t mshrs = 8;            //!< outstanding misses
    /** Flat memory-access latency when no cache model is attached
     *  (the "nocache" detail levels of Table 1). */
    Cycles noCacheMemLatency = 2;
};

/**
 * Index of the entry of @p busy_until that frees earliest, lowest
 * index on ties: the MSHR or write-buffer slot a miss takes. The
 * winner is data-dependent, so the scan selects instead of
 * branching (a compare-and-branch would mispredict about once per
 * miss).
 */
inline std::size_t
earliestFree(const std::vector<Cycles> &busy_until)
{
    std::size_t best = 0;
    Cycles best_at = busy_until[0];
    for (std::size_t i = 1; i < busy_until.size(); ++i) {
        bool earlier = busy_until[i] < best_at;
        best = earlier ? i : best;
        best_at = earlier ? busy_until[i] : best_at;
    }
    return best;
}

} // namespace osp

#endif // OSP_SIM_CPU_HH
