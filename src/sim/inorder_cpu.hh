/**
 * @file
 * A single-issue in-order core with blocking memory accesses.
 *
 * This is the fast timing model of Table 1 ("inorder" rows): every
 * instruction costs one cycle plus memory stalls plus branch
 * misprediction penalties. With no cache model attached it runs at
 * roughly 1 IPC, like Simics's in-order mode.
 */

#ifndef OSP_SIM_INORDER_CPU_HH
#define OSP_SIM_INORDER_CPU_HH

#include <algorithm>
#include <vector>

#include "cpu.hh"

namespace osp
{

/** See file comment. */
class InOrderCpu
{
  public:
    /**
     * @param params    core parameters (mispredictPenalty and
     *                  noCacheMemLatency are used)
     * @param hierarchy cache model, or nullptr for flat memory
     * @param bp        branch predictor, or nullptr to assume
     *                  perfect prediction
     */
    InOrderCpu(const CpuParams &params, MemoryHierarchy *hierarchy,
               GshareBp *bp);

    /** Account one instruction. Defined inline below the class:
     *  this is the per-instruction body of every in-order
     *  simulation, and keeping it visible to the caller lets the
     *  whole fetch/load hit chain flatten into the run loop. */
    void execute(const MicroOp &op, Owner owner);

    /**
     * Close the current interval: complete everything in flight and
     * return the cycles the interval consumed. The next interval
     * starts from a serialized (empty) pipeline.
     */
    Cycles drain();

    /** Absolute cycle count since construction. */
    Cycles now() const { return now_; }

  private:
    CpuParams params;
    MemoryHierarchy *hier;
    GshareBp *bp;
    Cycles now_ = 0;
    Cycles intervalStart = 0;
    Addr lastFetchLine = ~static_cast<Addr>(0);
    /** Write-buffer slots: store misses retire immediately unless
     *  all slots are busy, bounding memory-system pressure. */
    std::vector<Cycles> storeBusyUntil;
};

inline void
InOrderCpu::execute(const MicroOp &op, Owner owner)
{
    // Instruction fetch: one cache access per new 64B line.
    if (hier) {
        Addr line = op.pc >> 6;
        if (line != lastFetchLine) {
            lastFetchLine = line;
            auto out = hier->access(op.pc, AccessType::InstFetch,
                                    owner, now_);
            if (out.l1Miss) {
                // Stall for everything beyond the pipelined L1 hit.
                now_ += out.latency - hier->params().l1iHitLatency;
            }
        }
    }

    now_ += 1;  // single-issue base cost

    switch (op.cls) {
      case OpClass::IntAlu:
        break;
      case OpClass::FpAlu:
        now_ += op.execLat > 1 ? op.execLat - 1 : 0;
        break;
      case OpClass::Load:
        {
            Cycles lat = params.noCacheMemLatency;
            if (hier) {
                lat = hier->access(op.effAddr, AccessType::Load,
                                   owner, now_).latency;
            }
            // Blocking load: the full latency serializes.
            now_ += lat > 1 ? lat - 1 : 0;
            break;
        }
      case OpClass::Store:
        if (hier) {
            auto out =
                hier->accessL1(op.effAddr, AccessType::Store, owner);
            if (out.l1Miss) {
                // Store miss: take a write-buffer slot; stall only
                // when every slot is still busy.
                std::size_t best = earliestFree(storeBusyUntil);
                Cycles start =
                    std::max(now_, storeBusyUntil[best]);
                out = hier->accessBeyondL1(op.effAddr, true, owner,
                                           start, out);
                storeBusyUntil[best] = start + out.latency;
                now_ = start;
            }
        }
        break;
      case OpClass::Branch:
        if (bp) {
            bool correct = bp->predictAndUpdate(op.pc, op.taken);
            if (!correct)
                now_ += params.mispredictPenalty;
        }
        break;
    }
}

} // namespace osp

#endif // OSP_SIM_INORDER_CPU_HH
