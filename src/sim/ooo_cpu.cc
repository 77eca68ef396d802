#include "ooo_cpu.hh"

#include <algorithm>

#include "util/logging.hh"

namespace osp
{

OooCpu::OooCpu(const CpuParams &p, MemoryHierarchy *hierarchy,
               GshareBp *predictor)
    : params(p), hier(hierarchy), bp(predictor)
{
    if (params.windowSize == 0 || params.issueWidth == 0 ||
        params.retireWidth == 0) {
        osp_fatal("OooCpu: widths and window size must be >= 1");
    }
    rob.assign(params.windowSize, RobSlot());
    mshrBusyUntil.assign(std::max<std::uint32_t>(params.mshrs, 1), 0);
}

Cycles
OooCpu::producerReady(std::uint32_t dist, Cycles dflt) const
{
    if (dist == 0 || dist > params.windowSize)
        return dflt;
    if (seq < intervalSeq + dist)
        return dflt;  // producer predates this interval (drained)
    // (seq - dist) % windowSize without a division: dist is at most
    // windowSize, so one wrap-around suffices.
    std::uint32_t producer = robIdx >= dist
                                 ? robIdx - dist
                                 : robIdx + params.windowSize - dist;
    return rob[producer].ready;
}

void
OooCpu::execute(const MicroOp &op, Owner owner)
{
    // Reorder-buffer occupancy: the slot this op will take frees at
    // the commit time of the op windowSize earlier.
    if (seq >= intervalSeq + params.windowSize) {
        Cycles slot_free = rob[robIdx].commit;
        if (fetchCycle < slot_free) {
            fetchCycle = slot_free;
            fetchedThisCycle = 0;
        }
    }

    // Instruction fetch: one cache access per new 64B line.
    if (hier) {
        Addr line = op.pc >> 6;
        if (line != lastFetchLine) {
            lastFetchLine = line;
            auto out = hier->access(op.pc, AccessType::InstFetch,
                                    owner, fetchCycle);
            if (out.l1Miss) {
                fetchCycle +=
                    out.latency - hier->params().l1iHitLatency;
                fetchedThisCycle = 0;
            }
        }
    }

    // Fetch/issue bandwidth.
    if (fetchedThisCycle >= params.issueWidth) {
        fetchCycle += 1;
        fetchedThisCycle = 0;
    }
    ++fetchedThisCycle;
    Cycles dispatch = fetchCycle;

    Cycles dep_ready = producerReady(op.depDist, dispatch);
    Cycles ready;

    switch (op.cls) {
      case OpClass::IntAlu:
      case OpClass::FpAlu:
        ready = std::max(dispatch, dep_ready) + op.execLat;
        break;
      case OpClass::Load:
        {
            Cycles issue = std::max(dispatch, dep_ready);
            if (hier) {
                auto out =
                    hier->accessL1(op.effAddr, AccessType::Load, owner);
                if (!out.l1Miss) {
                    ready = issue + out.latency;
                } else {
                    // Long-latency miss: admission into an MSHR
                    // gates the request (and, transitively, the
                    // bus), so a saturated memory system
                    // back-pressures the core.
                    std::size_t m = earliestFree(mshrBusyUntil);
                    Cycles start =
                        std::max(issue, mshrBusyUntil[m]);
                    out = hier->accessBeyondL1(op.effAddr, false,
                                               owner, start, out);
                    mshrBusyUntil[m] = start + out.latency;
                    ready = start + out.latency;
                }
            } else {
                ready = issue + params.noCacheMemLatency;
            }
            break;
        }
      case OpClass::Store:
        {
            Cycles issue = std::max(dispatch, dep_ready);
            ready = issue + 1;
            if (hier) {
                auto out = hier->accessL1(op.effAddr,
                                          AccessType::Store, owner);
                if (out.l1Miss) {
                    // A store miss occupies an MSHR like a load;
                    // the store retires once admitted (write
                    // buffer), hiding the fill latency but not
                    // unbounded memory-system pressure.
                    std::size_t m = earliestFree(mshrBusyUntil);
                    Cycles start =
                        std::max(issue, mshrBusyUntil[m]);
                    out = hier->accessBeyondL1(op.effAddr, true,
                                               owner, start, out);
                    mshrBusyUntil[m] = start + out.latency;
                    ready = start + 1;
                }
            }
            break;
        }
      case OpClass::Branch:
      default:
        ready = std::max(dispatch, dep_ready) + 1;
        if (bp) {
            bool correct = bp->predictAndUpdate(op.pc, op.taken);
            if (!correct) {
                // Redirect fetch once the branch resolves.
                fetchCycle = ready + params.mispredictPenalty;
                fetchedThisCycle = 0;
            }
        }
        break;
    }

    // In-order commit under the retire-width constraint.
    Cycles commit = std::max(ready, lastCommit);
    if (commit == lastCommit) {
        if (committedThisCycle >= params.retireWidth) {
            commit += 1;
            committedThisCycle = 1;
        } else {
            ++committedThisCycle;
        }
    } else {
        committedThisCycle = 1;
    }
    lastCommit = commit;

    rob[robIdx].ready = ready;
    rob[robIdx].commit = commit;
    ++seq;
    if (++robIdx == params.windowSize)
        robIdx = 0;
}

Cycles
OooCpu::drain()
{
    Cycles cycles = lastCommit - intervalStart;
    intervalStart = lastCommit;
    // Serialize: the next interval starts fetching after the drain.
    fetchCycle = std::max(fetchCycle, lastCommit);
    fetchedThisCycle = 0;
    committedThisCycle = 0;
    intervalSeq = seq;
    lastFetchLine = ~static_cast<Addr>(0);
    return cycles;
}

} // namespace osp
