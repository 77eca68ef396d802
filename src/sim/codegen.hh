/**
 * @file
 * Lowering of declarative work items into MicroOp streams.
 *
 * Workloads and OS service handlers describe what a piece of code
 * does ("run 1200 VFS-profile ops over the dentry region", "copy
 * 16KB from the page cache to the user buffer") and the
 * CodeGenerator turns that into a deterministic instruction stream.
 *
 * Determinism matters: the same plan produces the same instruction
 * count whether it is consumed by the detailed timing models or by
 * the fast emulator, which is precisely the property that makes the
 * instruction count usable as a performance-behaviour signature
 * (Sec. 3 of the paper).
 */

#ifndef OSP_SIM_CODEGEN_HH
#define OSP_SIM_CODEGEN_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "code_profile.hh"
#include "microop.hh"
#include "util/random.hh"

namespace osp
{

/** Which MicroOp fields a lowering fills in. */
enum class Lowering : std::uint8_t
{
    /** Every field: what the timing engines consume. */
    Full,
    /**
     * pc, cls, effAddr and taken only: what page faults, the
     * interval profiler and functional warming read. It makes
     * exactly Full's RNG draws — a dependence-distance draw is
     * taken and discarded — so the stream of those four fields and
     * the generator's state after the call are Full's; depDist and
     * execLat keep their MicroOp defaults.
     */
    Lean,
};

/**
 * A queue of work items lowered lazily into MicroOps.
 *
 * Each instance owns its RNG, so two generators never perturb each
 * other and a given (seed, stream) pair replays exactly.
 */
class CodeGenerator
{
  public:
    explicit CodeGenerator(std::uint64_t seed, std::uint64_t stream);

    /**
     * Queue a generic compute block.
     *
     * @param profile  instruction mix / code footprint to draw from
     * @param num_ops  exact number of MicroOps the block yields
     * @param data     region loads and stores fall into
     * @param pattern  how data accesses walk the region
     * @param stride   stride for sequential patterns (bytes)
     */
    void pushCompute(const CodeProfile &profile, std::uint64_t num_ops,
                     Region data,
                     PatternKind pattern = PatternKind::Sequential,
                     std::uint32_t stride = 64);

    /**
     * Queue a copy loop moving @p bytes from @p src to @p dst.
     * Lowered as 4 ops per 16 bytes: load, store, index update,
     * loop branch. Yields exactly 4 * ceil(bytes/16) ops.
     */
    void pushCopy(const CodeProfile &profile, std::uint64_t bytes,
                  Region src, Region dst);

    /** True when every queued item is exhausted. */
    bool done() const { return items.empty(); }

    /** Exact number of MicroOps left across all queued items. */
    std::uint64_t pendingOps() const;

    /** Produce the next MicroOp. Calling with done() is a panic. */
    MicroOp next();

    /**
     * Lower up to @p cap MicroOps into @p out and return how many
     * were produced (0 iff done()). Produces the byte-identical
     * sequence repeated next() calls would — same RNG draws, same
     * cursor updates — but hoists the per-op queue-front checks and
     * kind dispatch out of the loop, which is what makes block
     * retirement in the Machine worth having.
     *
     * Lowering::Lean skips the dependence and latency work (the
     * geometric-table lookup, depDist, execLat and the per-op
     * load-distance update) for consumers that never read it.
     */
    template <Lowering L = Lowering::Full>
    std::size_t nextBlock(MicroOp *out, std::size_t cap);

    /**
     * Draw a cache footprint of the queued plan without lowering
     * it: what a predicted OS service installs in place of the
     * lines it would have touched. Clears @p data and @p code,
     * then fills them with:
     *  - up to @p data_lines data addresses on distinct lines. The
     *    plan's memory accesses are visited in a golden-ratio order
     *    from a uniform start (each access equally likely at every
     *    step, every prefix spread evenly over the plan), and each
     *    access whose line is not drawn yet adds its address, so a
     *    line comes up sooner the more accesses touch it. A Copy
     *    item has two accesses per 16-byte unit; a Compute item has
     *    its expected count, ops times the load-plus-store share;
     *  - up to @p code_lines fetch addresses on distinct lines, the
     *    same way over the plan's fetch positions, one per 16 ops
     *    of each item.
     * Each list stops short only when the plan touches fewer
     * lines. Every line counts once because a miss fetches a whole
     * line: a list with repeated lines would install fewer real
     * lines than the predicted misses and leave the rest to
     * synthetic tags.
     *
     * A Sequential or Copy access yields the address the lowering
     * gives it. A Random, PointerChase or Hot access makes the
     * item's own address draw. A fetch position sits on the item's
     * code walk: its first run from the item's start pc, later
     * runs from a drawn block.
     *
     * The draws come from two streams seeded off the generator's
     * RNG state, which restart() fixes per invocation, so the
     * footprint is a pure function of (seed, stream, plan). The
     * visiting order does not depend on the counts asked for, so a
     * shorter draw is a prefix of a longer one. The queued plan and
     * the RNG are left as they were: lowering afterwards yields the
     * stream it would have yielded without the draw.
     *
     * Costs O(positions + plan items) without a hash probe, plus a
     * probe per kept candidate: one pass in position order places
     * each position at its visit index, keeping of each run of a
     * Sequential or Copy walk on one line only its first visit, and
     * the candidates are then taken in visit order, making the
     * address draws of the positions that have one, until the lines
     * asked for are drawn. Addresses must lie below 2^63.
     */
    void drawFootprint(std::size_t data_lines, std::size_t code_lines,
                       std::vector<Addr> &data,
                       std::vector<Addr> &code);

    /**
     * Return to the state of a freshly constructed
     * CodeGenerator(seed, stream): new RNG, no queued work, no
     * sequential cursors, no load history. The geometric tables
     * survive, since each depends only on its probability, so a
     * generator restarted per OS-service invocation builds every
     * table once instead of once per invocation.
     */
    void restart(std::uint64_t seed, std::uint64_t stream);

  private:
    /** Reads the queued plan in tests (a reference footprint walk). */
    friend struct CodeGeneratorTestPeer;

    struct WorkItem
    {
        enum class Kind : std::uint8_t { Compute, Copy };
        Kind kind = Kind::Compute;
        CodeProfile profile;  //!< copied: callers may reuse/destroy
        std::uint64_t opsLeft = 0;
        // Data-access cursors.
        Region data;
        PatternKind pattern = PatternKind::Sequential;
        std::uint32_t stride = 64;
        Addr dataCursor = 0;
        // Copy state.
        Region src;
        Region dst;
        Addr srcCursor = 0;
        Addr dstCursor = 0;
        std::uint8_t copyPhase = 0;
        // Fetch state.
        Addr pc = 0;
        std::uint32_t blockLeft = 0;
        /**
         * Raw-integer forms of the profile's class-selection and
         * Bernoulli thresholds (Pcg32::rawThreshold), derived once
         * in startItem() from the exact cumulative doubles the
         * lowering compares used to rebuild per op. Same draws,
         * same outcomes — minus four int->double conversions and
         * double compares per lowered op.
         */
        std::uint64_t thrLoad = 0;
        std::uint64_t thrStore = 0;      //!< load + store
        std::uint64_t thrBranch = 0;     //!< load + store + branch
        std::uint64_t thrFp = 0;         //!< ... + fp
        std::uint64_t thrBranchRandom = 0;
        std::uint64_t thrDep = 0;
        /**
         * Precomputed range(bound) constants for the item's fixed
         * bounds (code-block jumps, data-region lines, hot-subset
         * lines), so the per-draw path never recomputes a rejection
         * threshold or Lemire magic when draws alternate between
         * bounds. Same draws, same values as plain range().
         */
        Pcg32::RangeDraw pcDraw;
        Pcg32::RangeDraw dataDraw;
        Pcg32::RangeDraw hotDraw;
        /** Index into geomTables for the profile's dep-distance p. */
        std::uint32_t geomIdx = 0;
        /** geometricWith() on that table consumes a draw (its p is
         *  inside (0, 1)); what Lean lowering replays instead. */
        bool depDraws = false;
    };

    /** drawFootprint()'s data and code lists, from @p r. */
    void drawData(std::size_t lines, Pcg32 &r, std::vector<Addr> &out);
    void drawCode(std::size_t lines, Pcg32 &r, std::vector<Addr> &out);

    /** Pick a data address for the current item and advance cursors. */
    Addr dataAddr(WorkItem &item, bool chase);

    /** Advance the fetch point; returns the pc for the next op. */
    Addr nextPc(WorkItem &item);

    template <Lowering L>
    MicroOp lowerCompute(WorkItem &item);
    template <Lowering L>
    MicroOp lowerCopy(WorkItem &item);

    void startItem(WorkItem &item);

    /** Index of the (built-on-demand) GeomTable for probability p. */
    std::uint32_t geomTableFor(double p);

    std::deque<WorkItem> items;
    Pcg32 rng;
    /**
     * One exact-replay geometric table per distinct dep-distance
     * probability seen (a handful per run: user profile + service
     * profiles). Items reference them by index, so re-pushing a
     * profile every few thousand ops never rebuilds a table, and
     * restart() keeps them.
     */
    std::vector<Pcg32::GeomTable> geomTables;
    /** Dynamic distance (ops) since the last emitted load, for
     *  pointer-chase dependence chains. */
    std::uint32_t opsSinceLoad = 255;
    /**
     * Sequential-pattern cursors persisted across work items, keyed
     * by region base: a streaming workload split into many compute
     * blocks keeps walking forward instead of restarting at the
     * region base each block.
     */
    std::unordered_map<Addr, Addr> seqCursors;
    /** drawFootprint() scratch, reused across calls: the visit
     *  order's marks and words, the items whose positions draw
     *  their address, and the set of lines drawn. */
    std::vector<std::uint64_t> drawBits;
    std::vector<std::uint64_t> drawSlots;
    std::vector<const WorkItem *> drawItems;
    std::vector<std::uint64_t> drawSeen;
};

} // namespace osp

#endif // OSP_SIM_CODEGEN_HH
