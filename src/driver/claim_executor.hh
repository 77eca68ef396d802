/**
 * @file
 * The claim-loop executor: one worker process's share of a
 * distributed sweep.
 *
 * N workers open the same store in shared mode (see
 * store/page_store.hh) and race over the expanded spec through the
 * claim table (store/claim_table.hh). The loop alternates two
 * store transactions around lock-free execution:
 *
 *  1. *Claim.* One write transaction: bump the heartbeat, walk the
 *     cells in index order, skip every cell with a committed result
 *     or a terminal claim, and take the first cell that is
 *     unclaimed, awaiting retry, or whose claim's lease has expired
 *     (heartbeat - epoch > leaseTicks — the owner stopped
 *     refreshing). Reclaiming an expired lease is free: only
 *     execution failures charge retries, so lease churn alone can
 *     never drive a cell to the terminal failed state.
 *  2. *Execute.* executeCell() (runCell() or the test seam, the
 *     step runSweep takes too) outside any transaction — the
 *     expensive part runs unserialized, which is where the
 *     multi-process speedup comes from. A background
 *     refresher thread re-asserts the claim's epoch every
 *     refreshMs, so the lease stays fresh however long the cell
 *     takes while other workers' poll transactions advance the
 *     heartbeat.
 *  3. *Commit.* One write transaction: bump the heartbeat, verify
 *     the claim is still ours (a worker whose lease was somehow
 *     reclaimed finds another owner and discards its result — the
 *     duplicate execution is benign because cells are
 *     deterministic), then atomically put the encoded cell value
 *     and the done-state claim. A cell that threw records a retry-
 *     state claim (or failed, on exhaustion) with the error text.
 *
 * When every remaining cell is claimed by live leases the worker
 * polls with exponential backoff; it exits when nothing is left to
 * claim and no other worker's lease is outstanding.
 */

#ifndef OSP_DRIVER_CLAIM_EXECUTOR_HH
#define OSP_DRIVER_CLAIM_EXECUTOR_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sweep.hh"
#include "util/json.hh"

namespace osp
{

class CellCache;

/** Policy and identity of one claim-loop worker. */
struct WorkerOptions
{
    /** Unique worker id recorded in claim records. */
    std::string owner = "worker";
    /** Lease length in heartbeat ticks: a claim whose epoch lags
     *  the counter by more than this is reclaimable. */
    std::uint64_t leaseTicks = 64;
    /** Total attempts a cell gets before it is marked failed.
     *  Only execution failures count; lease-expiry reclaims are
     *  free. */
    std::uint64_t maxRetries = 3;
    /** Initial idle-poll sleep (doubles up to 1 s) while waiting on
     *  other workers' live leases. */
    long pollMs = 50;
    /** Wall-clock period of the background refresher that
     *  re-asserts this worker's claim epoch while a cell executes,
     *  keeping the lease fresh under other workers' heartbeat
     *  bumps (0 disables refreshing — test seam). */
    long refreshMs = 200;
    /** As RunnerOptions: per-cell event-ring size. */
    std::size_t traceCapacity = 0;
    /** As RunnerOptions: archived PLT profiles by workload. */
    const std::map<std::string, std::string> *warmProfiles = nullptr;
    /** As RunnerOptions: test seam replacing runCell(). */
    std::function<CellResult(const SweepSpec &, const SweepCell &,
                             std::size_t trace_capacity)>
        cellRunner;
    /**
     * Crash-test seam (--kill-after-claim): raise SIGKILL on
     * ourselves right after the first claim transaction commits, so
     * CI gets a victim that dies holding exactly one live lease.
     */
    bool killAfterFirstClaim = false;
};

/** What one worker did, for the per-worker stats document. */
struct WorkerStats
{
    std::uint64_t claimed = 0;    //!< claim transactions won
    std::uint64_t executed = 0;   //!< cells actually run
    std::uint64_t committed = 0;  //!< results committed (done)
    std::uint64_t reclaimed = 0;  //!< expired leases taken over
    std::uint64_t retriesRecorded = 0;  //!< failures marked retry
    std::uint64_t exhausted = 0;  //!< cells marked failed terminal
    std::uint64_t lostLeases = 0; //!< results discarded (reclaimed)
    std::uint64_t polls = 0;      //!< idle waits on live leases
    std::uint64_t heartbeats = 0; //!< heartbeat bumps
    std::uint64_t refreshes = 0;  //!< lease epochs re-asserted
                                  //!< mid-execution
    /** (cell index, wall µs) per cell this worker executed, in
     *  execution order. Assembled cells carry no wall time, so this
     *  is where a distributed sweep's per-cell timing lives. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cellWalls;
};

/**
 * Run the claim loop over @p spec until no claimable work remains.
 * The cache supplies cell keys, the fingerprint and the shared
 * store handle; the store must be open in shared mode when other
 * workers run concurrently.
 */
WorkerStats runSweepWorker(const SweepSpec &spec, CellCache &cache,
                           const WorkerOptions &options);

/** The "worker" section of the per-worker stats document. */
JsonValue workerStatsToJson(const WorkerStats &stats,
                            const std::string &owner);

} // namespace osp

#endif // OSP_DRIVER_CLAIM_EXECUTOR_HH
