#include "claim_executor.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cell_cache.hh"
#include "cell_io.hh"
#include "store/claim_table.hh"

namespace osp
{

namespace
{

/** Outcome of one claim transaction. */
struct ClaimOutcome
{
    /** Index into the expansion of the cell we claimed. */
    std::optional<std::size_t> cellIndex;
    /** Cells neither committed nor terminal — some worker still
     *  owes a result (a live owner's claim or awaiting retry by
     *  us). */
    std::uint64_t outstanding = 0;
    bool reclaimedDead = false;
};

/** How long a starting worker waits for its own owner lock.
 *  Probers hold it for microseconds, so a lock still held after
 *  this long belongs to a live worker with the same owner id. */
constexpr long kOwnerLockWaitMs = 1000;

} // namespace

WorkerStats
runSweepWorker(const SweepSpec &spec, CellCache &cache,
               const WorkerOptions &options)
{
    WorkerStats stats;
    store::ClaimTable table(cache.fingerprint());
    store::PageStore &store = cache.store();

    // Held until we return: the kernel drops it when this process
    // dies, which is how peers tell our claims from a dead
    // worker's.
    store::FileLock self(
        store::ClaimTable::ownerLockPath(store.path(), options.owner));
    if (!self.tryLock("worker " + options.owner, kOwnerLockWaitMs)) {
        std::string holder = self.holderHint();
        if (!holder.empty())
            holder = " [" + holder + "]";
        throw std::runtime_error(
            "owner '" + options.owner +
            "' already has a live worker on '" + store.path() + "'" +
            holder + "; give each worker its own --owner");
    }

    std::vector<SweepCell> cells = expandSweep(spec);
    std::vector<std::string> keys =
        cache.cellKeys(spec, options.traceCapacity);

    long poll_ms = options.pollMs;
    for (bool first_pass = true;; first_pass = false) {
        // --- claim transaction --------------------------------
        ClaimOutcome outcome;
        {
            store::WriteTx tx = store.beginWrite();
            for (const SweepCell &cell : cells) {
                const std::string &key = keys[cell.index];
                if (tx.get(cache.storeKey(key)))
                    continue;  // result already committed
                auto rec = table.get(tx, key);
                if (rec && rec->state == store::ClaimState::Done)
                    continue;  // done claim, value raced in
                if (rec && rec->state == store::ClaimState::Failed)
                    continue;  // terminal
                if (outcome.cellIndex) {
                    ++outcome.outstanding;
                    continue;
                }
                store::ClaimRecord next;
                next.owner = options.owner;
                next.state = store::ClaimState::Claimed;
                if (!rec) {
                    // Unclaimed: take it.
                } else if (rec->state == store::ClaimState::Retry) {
                    next.retries = rec->retries;
                } else if (rec->owner == options.owner) {
                    // Our own claim from a previous incarnation of
                    // this owner id (we hold the owner lock, so it
                    // is dead): re-claim at full price.
                    next.retries = rec->retries;
                } else {
                    store::FileLock probe(
                        store::ClaimTable::ownerLockPath(store.path(),
                                                         rec->owner));
                    if (!probe.tryLock("probe by " + options.owner,
                                       0)) {
                        ++outcome.outstanding;  // owner is alive
                        continue;
                    }
                    // The owner's lock was free, so it died
                    // (crashed, killed). Reclaiming is free — only
                    // execution failures charge retries — and the
                    // probe's lock is released with it.
                    next.retries = rec->retries;
                    outcome.reclaimedDead = true;
                }
                table.put(tx, key, next);
                outcome.cellIndex = cell.index;
            }
            tx.commit();
        }

        if (!outcome.cellIndex) {
            if (outcome.outstanding == 0)
                return stats;  // sweep complete (or terminal)
            // Everything left is claimed by live workers: wait for
            // them to finish, fail, or die.
            ++stats.polls;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(poll_ms));
            poll_ms = std::min<long>(poll_ms * 2, 1000);
            continue;
        }
        ++stats.claimed;
        if (outcome.reclaimedDead)
            ++stats.reclaimed;
        poll_ms = options.pollMs;
        if (first_pass && options.killAfterFirstClaim) {
            // Crash seam: die holding exactly one claim.
            ::kill(::getpid(), SIGKILL);
        }

        // --- execute (no transaction held) --------------------
        const SweepCell &cell = cells[*outcome.cellIndex];
        const std::string &key = keys[cell.index];
        auto exec_t0 = std::chrono::steady_clock::now();
        CellResult result =
            executeCell(spec, cell, options.traceCapacity,
                        options.warmProfiles, options.cellRunner);
        bool failed = result.failed;
        if (!failed) {
            ++stats.executed;
            stats.cellWalls.emplace_back(
                cell.index,
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - exec_t0)
                    .count());
        }

        // --- commit transaction -------------------------------
        {
            store::WriteTx tx = store.beginWrite();
            auto rec = table.get(tx, key);
            if (!rec ||
                rec->state != store::ClaimState::Claimed ||
                rec->owner != options.owner) {
                // Someone reclaimed our claim while we ran (only a
                // peer that saw our owner lock free can); their
                // identical, deterministic result wins.
                ++stats.lostLeases;
                tx.commit();
                continue;
            }
            store::ClaimRecord next = *rec;
            if (!failed) {
                tx.put(cache.storeKey(key),
                       encodeCellResult(result));
                next.state = store::ClaimState::Done;
                next.error.clear();
                ++stats.committed;
            } else {
                next.retries = rec->retries + 1;
                next.error = result.error;
                if (next.retries >= options.maxRetries) {
                    next.state = store::ClaimState::Failed;
                    ++stats.exhausted;
                } else {
                    next.state = store::ClaimState::Retry;
                    ++stats.retriesRecorded;
                }
            }
            table.put(tx, key, next);
            tx.commit();
        }
    }
}

JsonValue
workerStatsToJson(const WorkerStats &stats, const std::string &owner)
{
    JsonValue doc = JsonValue::object();
    doc.add("owner", owner);
    doc.add("claimed", stats.claimed);
    doc.add("executed", stats.executed);
    doc.add("committed", stats.committed);
    doc.add("reclaimed", stats.reclaimed);
    doc.add("retries_recorded", stats.retriesRecorded);
    doc.add("exhausted", stats.exhausted);
    doc.add("lost_leases", stats.lostLeases);
    doc.add("polls", stats.polls);
    JsonValue walls = JsonValue::array();
    for (const auto &[index, us] : stats.cellWalls) {
        JsonValue w = JsonValue::array();
        w.append(index);
        w.append(us);
        walls.append(std::move(w));
    }
    doc.add("cell_walls", std::move(walls));
    return doc;
}

} // namespace osp
