/**
 * @file
 * The dynamic instruction record consumed by the timing models.
 *
 * The simulator is generator-driven: workloads and OS service
 * handlers synthesize streams of MicroOps with realistic mixes,
 * dependency distances and memory addresses, and the CPU models
 * consume them. A MicroOp is deliberately small (fits in 24 bytes)
 * because detailed simulation throughput bounds every experiment.
 */

#ifndef OSP_SIM_MICROOP_HH
#define OSP_SIM_MICROOP_HH

#include <cstdint>

#include "util/types.hh"

namespace osp
{

/** Functional class of a dynamic instruction. */
enum class OpClass : std::uint8_t
{
    IntAlu,   //!< 1-cycle integer operation
    FpAlu,    //!< multi-cycle floating-point operation
    Load,     //!< memory read
    Store,    //!< memory write
    Branch,   //!< conditional branch (direction in MicroOp)
};

/** Number of OpClass values (for per-class arrays). */
inline constexpr int numOpClasses = 5;
static_assert(static_cast<int>(OpClass::Branch) + 1 == numOpClasses);

/** One dynamic instruction. */
struct MicroOp
{
    Addr pc = 0;        //!< instruction address (I-fetch, BP index)
    Addr effAddr = 0;   //!< effective address for Load/Store
    OpClass cls = OpClass::IntAlu;
    /** Distance (in dynamic instructions) to the producer this op
     *  depends on; 0 means no register dependence is modeled. */
    std::uint8_t depDist = 0;
    /** Base execution latency in cycles (excludes memory). */
    std::uint8_t execLat = 1;
    /** Architectural branch direction (Branch only). */
    bool taken = false;
};

} // namespace osp

#endif // OSP_SIM_MICROOP_HH
