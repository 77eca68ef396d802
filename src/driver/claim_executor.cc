#include "claim_executor.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <limits>
#include <mutex>
#include <optional>
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
     *  owes a result (live lease or awaiting retry by us). */
    std::uint64_t outstanding = 0;
    bool reclaimedExpired = false;
};

/**
 * Background lease refresher: while a cell executes, periodically
 * re-assert the claim's epoch so the lease stays fresh however
 * fast other workers' poll/claim/commit transactions advance the
 * heartbeat. Best-effort — a refresh that loses the store gate or
 * hits an I/O error is simply skipped; the worst case (the lease
 * expires and another worker re-runs the cell) is benign because
 * reclaims are free and cells are deterministic.
 */
class LeaseRefresher
{
  public:
    LeaseRefresher(store::PageStore &store,
                   const store::ClaimTable &table,
                   const std::string &cell_key,
                   const std::string &owner, long period_ms)
        : store_(store), table_(table), cellKey_(cell_key),
          owner_(owner)
    {
        if (period_ms > 0)
            thread_ = std::thread(
                [this, period_ms] { run(period_ms); });
    }

    ~LeaseRefresher() { stop(); }

    /** Join the refresher; returns how many refreshes landed. */
    std::uint64_t
    stop()
    {
        if (thread_.joinable()) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                stop_ = true;
            }
            cv_.notify_one();
            thread_.join();
        }
        return refreshes_;
    }

  private:
    void
    run(long period_ms)
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!cv_.wait_for(lock,
                             std::chrono::milliseconds(period_ms),
                             [this] { return stop_; })) {
            lock.unlock();
            refreshOnce();
            lock.lock();
        }
    }

    void
    refreshOnce()
    {
        try {
            store::WriteTx tx = store_.beginWrite();
            auto rec = table_.get(tx, cellKey_);
            if (!rec ||
                rec->state != store::ClaimState::Claimed ||
                rec->owner != owner_)
                return;  // reclaimed under us; drop the tx
            std::uint64_t hb = table_.heartbeat(tx);
            if (rec->epoch == hb)
                return;  // already fresh; nothing to commit
            rec->epoch = hb;
            table_.put(tx, cellKey_, *rec);
            tx.commit();
            ++refreshes_;
        } catch (...) {
            // Skip this refresh; the next period tries again.
        }
    }

    store::PageStore &store_;
    const store::ClaimTable &table_;
    std::string cellKey_;
    std::string owner_;
    std::thread thread_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::uint64_t refreshes_ = 0;
};

} // namespace

WorkerStats
runSweepWorker(const SweepSpec &spec, CellCache &cache,
               const WorkerOptions &options)
{
    WorkerStats stats;
    store::ClaimTable table(cache.fingerprint());
    store::PageStore &store = cache.store();

    std::vector<SweepCell> cells = expandSweep(spec);
    std::vector<std::string> keys =
        cache.cellKeys(spec, options.traceCapacity);

    long poll_ms = options.pollMs;
    for (bool first_pass = true;; first_pass = false) {
        // --- claim transaction --------------------------------
        ClaimOutcome outcome;
        {
            store::WriteTx tx = store.beginWrite();
            // Bump even when this pass claims nothing: once every
            // other cell is done, idle polls are the only thing
            // still advancing the clock, and without them a
            // crashed worker's last lease would never expire. Live
            // owners are immune to the resulting churn — their
            // refresher re-asserts the epoch while they execute,
            // and reclaiming never charges a retry.
            std::uint64_t hb = table.bumpHeartbeat(tx);
            ++stats.heartbeats;
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
                next.epoch = hb;
                if (!rec) {
                    // Unclaimed: take it.
                } else if (rec->state == store::ClaimState::Retry) {
                    next.retries = rec->retries;
                } else if (rec->owner == options.owner) {
                    // Our own stale lease (a previous incarnation
                    // of this owner id): re-claim at full price.
                    next.retries = rec->retries;
                } else {
                    // hb is this transaction's bump, so any well-
                    // formed store has epoch <= hb (check_store
                    // asserts it). An epoch from the future means
                    // the heartbeat record was corrupted and the
                    // counter restarted near zero: treat the lease
                    // as infinitely old so the keyspace heals
                    // through reclaim.
                    std::uint64_t age =
                        hb >= rec->epoch
                            ? hb - rec->epoch
                            : std::numeric_limits<
                                  std::uint64_t>::max();
                    if (age <= options.leaseTicks) {
                        ++outcome.outstanding;  // live lease
                        continue;
                    }
                    // Expired lease: the owner stopped refreshing
                    // (crashed, killed, hung). Reclaiming is free
                    // — only execution failures charge retries —
                    // so a slow but live owner can never be driven
                    // to terminal failure by lease churn; the
                    // duplicate run it causes is benign because
                    // cells are deterministic.
                    next.retries = rec->retries;
                    outcome.reclaimedExpired = true;
                }
                table.put(tx, key, next);
                outcome.cellIndex = cell.index;
            }
            tx.commit();
        }

        if (!outcome.cellIndex) {
            if (outcome.outstanding == 0)
                return stats;  // sweep complete (or terminal)
            // Everything left is leased by live workers: wait for
            // them to finish, fail, or expire.
            ++stats.polls;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(poll_ms));
            poll_ms = std::min<long>(poll_ms * 2, 1000);
            continue;
        }
        ++stats.claimed;
        if (outcome.reclaimedExpired)
            ++stats.reclaimed;
        poll_ms = options.pollMs;
        if (first_pass && options.killAfterFirstClaim) {
            // Crash seam: die holding exactly one live lease.
            ::kill(::getpid(), SIGKILL);
        }

        // --- execute (no transaction held) --------------------
        const SweepCell &cell = cells[*outcome.cellIndex];
        const std::string &key = keys[cell.index];
        CellResult result;
        auto exec_t0 = std::chrono::steady_clock::now();
        {
            LeaseRefresher refresher(store, table, key,
                                     options.owner,
                                     options.refreshMs);
            result = executeCell(spec, cell, options.traceCapacity,
                                 options.warmProfiles,
                                 options.cellRunner);
            stats.refreshes += refresher.stop();
        }
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
            table.bumpHeartbeat(tx);
            ++stats.heartbeats;
            auto rec = table.get(tx, key);
            if (!rec ||
                rec->state != store::ClaimState::Claimed ||
                rec->owner != options.owner) {
                // Someone reclaimed our expired lease while we ran;
                // their (identical, deterministic) result wins.
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
    doc.add("heartbeats", stats.heartbeats);
    doc.add("refreshes", stats.refreshes);
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
