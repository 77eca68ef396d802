/**
 * @file
 * Fundamental scalar types shared by every module.
 *
 * Follows the gem5 convention of giving architectural quantities
 * named types so interfaces document themselves.
 */

#ifndef OSP_UTIL_TYPES_HH
#define OSP_UTIL_TYPES_HH

#include <cstdint>

namespace osp
{

/** A (virtual) memory address. The simulator does not model paging
 *  hardware, so virtual and physical addresses coincide. */
using Addr = std::uint64_t;

/** A count of processor clock cycles. */
using Cycles = std::uint64_t;

/** A count of dynamically executed (retired) instructions. */
using InstCount = std::uint64_t;

/** A signed difference of cycle counts. */
using CyclesDelta = std::int64_t;

/**
 * Who architecturally owns a memory access or a cache line: the
 * application (user mode) or the operating system (kernel mode).
 *
 * The paper's technique requires separating OS performance from
 * application performance; tagging every access and resident line
 * with its owner is what makes that separation exact.
 */
enum class Owner : std::uint8_t
{
    App = 0,
    Os = 1,
};

/** Number of distinct Owner values (for owner-indexed arrays). */
inline constexpr int numOwners = 2;

} // namespace osp

#endif // OSP_UTIL_TYPES_HH
