/** @file Tests for the distributed claim-loop executor: worker-
 *  count byte-invariance of the assembled document, cross-worker
 *  retry of failed cells up to the policy limit (terminal failure
 *  only on exhaustion), stale-lease reclamation (free of retry
 *  charge, including from a corrupt heartbeat counter), the
 *  background lease refresher that keeps a slow cell's claim
 *  fresh, the claim-aware assembly of exhausted failures, and
 *  that cells execute outside the store's writer gate. Concurrency
 *  scenarios run two shared-mode store handles in one process —
 *  flock(2) makes them contend exactly like two processes. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "driver/cell_cache.hh"
#include "driver/cell_io.hh"
#include "driver/claim_executor.hh"
#include "driver/sweep.hh"
#include "store/claim_table.hh"
#include "store/page_store.hh"

namespace osp
{
namespace
{

constexpr const char *kFingerprint = "claimtestfp";

class ClaimExecutorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = (std::filesystem::temp_directory_path() /
                 ("osp_claim_exec_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name()) +
                  ".db"))
                    .string();
        removeFiles();
    }

    void TearDown() override { removeFiles(); }

    void
    removeFiles()
    {
        std::filesystem::remove(path_);
        std::filesystem::remove(path_ + ".lock");
        std::filesystem::remove(path_ + ".ref");
        std::filesystem::remove(path_ + ".ref.lock");
    }

    std::unique_ptr<store::PageStore>
    openShared()
    {
        store::StoreOptions o;
        o.shared = true;
        return store::PageStore::open(path_, o);
    }

    std::string path_;
};

/** A fast deterministic stand-in for runCell(): a pure function of
 *  the cell coordinates, so worker and reference runs produce the
 *  same bytes without paying for real simulation. */
CellResult
fakeCell(const SweepSpec &, const SweepCell &cell, std::size_t)
{
    CellResult r;
    r.cell = cell;
    r.totals.appInsts = 1000 + cell.seed % 257;
    r.totals.appCycles = 3000 + cell.seed % 1031;
    r.totals.osInsts = 100 + cell.l2Bytes % 89;
    r.totals.osSimCycles = 500 + cell.seedIndex * 7;
    r.totals.osInvocations = 4 + cell.index;
    r.totals.osSimulated = 4 + cell.index;
    return r;
}

/** Four cells: (Full + Accelerated) x 2 seeds of one workload. */
SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.name = "claim-tiny";
    spec.workloads = {"du"};
    spec.modes = {RunMode::Full, RunMode::Accelerated};
    spec.predictors = {{"default", PredictorParams{}}};
    spec.numSeeds = 2;
    spec.scale = 0.05;
    return spec;
}

/** Canonical (timing-free) results document bytes. */
std::string
canonicalJson(const SweepResult &result)
{
    JsonOptions jopts;
    jopts.includeTiming = false;
    std::ostringstream os;
    writeResultsJson(os, result, jopts);
    return os.str();
}

/** Reference document: a plain single-process runSweep recording
 *  into its own store (so the store section is present, as it will
 *  be in the assembled document). */
std::string
referenceJson(const SweepSpec &spec, const std::string &store_path,
              const RunnerOptions &base)
{
    auto store = store::PageStore::open(store_path);
    CellCache cache(*store, kFingerprint);
    RunnerOptions opts = base;
    opts.threads = 1;
    opts.cache = &cache;
    return canonicalJson(runSweep(spec, opts));
}

/** Assemble from the claim-covered store and return the canonical
 *  bytes (exclusive open: every worker is done). */
std::string
assembleJson(const SweepSpec &spec, const std::string &store_path,
             const RunnerOptions &base)
{
    auto store = store::PageStore::open(store_path);
    CellCache cache(*store, kFingerprint);
    RunnerOptions opts = base;
    opts.threads = 1;
    opts.cache = &cache;
    opts.incremental = true;
    opts.claimAware = true;
    return canonicalJson(runSweep(spec, opts));
}

TEST_F(ClaimExecutorTest, SingleWorkerAssemblesColdRunBytes)
{
    SweepSpec spec = tinySpec();
    RunnerOptions base;
    base.cellRunner = fakeCell;

    std::atomic<int> executions{0};
    {
        auto store = openShared();
        CellCache cache(*store, kFingerprint);
        WorkerOptions wopts;
        wopts.owner = "solo";
        wopts.cellRunner = [&](const SweepSpec &s,
                               const SweepCell &c,
                               std::size_t tc) {
            ++executions;
            return fakeCell(s, c, tc);
        };
        WorkerStats stats = runSweepWorker(spec, cache, wopts);
        EXPECT_EQ(stats.claimed, 4u);
        EXPECT_EQ(stats.committed, 4u);
        EXPECT_EQ(stats.reclaimed, 0u);
        EXPECT_EQ(stats.lostLeases, 0u);

        // The --store-stats "worker" section lists one
        // [cell index, wall µs] pair per executed cell; a lone
        // worker claims in index order.
        JsonValue doc = workerStatsToJson(stats, "solo");
        const JsonValue *walls = doc.find("cell_walls");
        ASSERT_NE(walls, nullptr);
        ASSERT_TRUE(walls->isArray());
        ASSERT_EQ(walls->size(), 4u);
        for (std::size_t i = 0; i < walls->size(); ++i) {
            const JsonValue &w = walls->at(i);
            ASSERT_TRUE(w.isArray());
            ASSERT_EQ(w.size(), 2u);
            EXPECT_EQ(w.at(0).asUint(), i);
            EXPECT_EQ(w.at(1).asUint(), stats.cellWalls[i].second);
        }
    }
    EXPECT_EQ(executions.load(), 4);

    EXPECT_EQ(assembleJson(spec, path_, base),
              referenceJson(spec, path_ + ".ref", base));
}

TEST_F(ClaimExecutorTest, TwoConcurrentWorkersAreByteInvariant)
{
    SweepSpec spec = tinySpec();
    RunnerOptions base;
    base.cellRunner = fakeCell;

    WorkerStats s1, s2;
    {
        auto store1 = openShared();
        auto store2 = openShared();
        CellCache cache1(*store1, kFingerprint);
        CellCache cache2(*store2, kFingerprint);
        std::thread t1([&] {
            WorkerOptions w;
            w.owner = "w1";
            w.cellRunner = fakeCell;
            s1 = runSweepWorker(spec, cache1, w);
        });
        std::thread t2([&] {
            WorkerOptions w;
            w.owner = "w2";
            w.cellRunner = fakeCell;
            s2 = runSweepWorker(spec, cache2, w);
        });
        t1.join();
        t2.join();
    }
    // Every cell committed exactly once across workers (default
    // lease is far longer than this run, so no reclaims happen).
    EXPECT_EQ(s1.committed + s2.committed, 4u);
    EXPECT_EQ(s1.lostLeases + s2.lostLeases, 0u);

    // The worker-count invariance contract.
    EXPECT_EQ(assembleJson(spec, path_, base),
              referenceJson(spec, path_ + ".ref", base));
}

TEST_F(ClaimExecutorTest, WorkersExecuteCellsOutsideTheWriterGate)
{
    // Two workers share one store, and each cell runner waits until
    // both runners are executing at once. That can only happen if a
    // worker holds no store transaction while its cell runs: a
    // writer gate held across execution would block the other
    // worker's claim, and every wait would time out.
    SweepSpec spec = tinySpec();
    std::mutex mu;
    std::condition_variable cv;
    int running = 0;
    bool overlapped = false;
    bool gave_up = false;
    auto runner = [&](const SweepSpec &s, const SweepCell &c,
                      std::size_t tc) {
        {
            std::unique_lock<std::mutex> lock(mu);
            if (++running == 2)
                overlapped = true;
            cv.notify_all();
            if (!cv.wait_for(lock, std::chrono::seconds(10), [&] {
                    return overlapped || gave_up;
                }))
                gave_up = true;
            --running;
        }
        return fakeCell(s, c, tc);
    };

    WorkerStats s1, s2;
    {
        auto store1 = openShared();
        auto store2 = openShared();
        CellCache cache1(*store1, kFingerprint);
        CellCache cache2(*store2, kFingerprint);
        auto work = [&](CellCache &cache, const char *owner,
                        WorkerStats &out) {
            WorkerOptions w;
            w.owner = owner;
            w.cellRunner = runner;
            out = runSweepWorker(spec, cache, w);
        };
        std::thread t1(work, std::ref(cache1), "w1", std::ref(s1));
        std::thread t2(work, std::ref(cache2), "w2", std::ref(s2));
        t1.join();
        t2.join();
    }
    EXPECT_TRUE(overlapped) << "the two workers never executed "
                               "cells at the same time";
    EXPECT_FALSE(gave_up);
    EXPECT_GE(s1.executed, 1u);
    EXPECT_GE(s2.executed, 1u);
    EXPECT_EQ(s1.committed + s2.committed, 4u);
}

TEST_F(ClaimExecutorTest, FailedCellIsRetriedByAnotherClaimant)
{
    SweepSpec spec = tinySpec();
    std::vector<SweepCell> cells = expandSweep(spec);
    const std::size_t victim_index = 1;

    // Worker 1's attempt at the victim cell failed once: it left a
    // retry-state claim behind (exactly what the commit path
    // writes after a throw).
    std::string victim_key;
    {
        auto store = openShared();
        CellCache cache(*store, kFingerprint);
        victim_key = cache.cellKey(spec, cells[victim_index], 0);
        store::ClaimTable table(kFingerprint);
        store::WriteTx tx = store->beginWrite();
        table.bumpHeartbeat(tx);
        store::ClaimRecord rec;
        rec.owner = "w1";
        rec.state = store::ClaimState::Retry;
        rec.epoch = 1;
        rec.retries = 1;
        rec.error = "transient failure in w1";
        table.put(tx, victim_key, rec);
        tx.commit();
    }

    // Worker 2 claims the retry cell and succeeds.
    {
        auto store = openShared();
        CellCache cache(*store, kFingerprint);
        WorkerOptions w;
        w.owner = "w2";
        w.cellRunner = fakeCell;
        WorkerStats stats = runSweepWorker(spec, cache, w);
        EXPECT_EQ(stats.committed, 4u);
    }
    {
        auto store = openShared();
        store::ClaimTable table(kFingerprint);
        auto rec =
            table.get(store->beginRead(), victim_key);
        ASSERT_TRUE(rec.has_value());
        EXPECT_EQ(rec->state, store::ClaimState::Done);
        EXPECT_EQ(rec->owner, "w2");
        // The earlier failure stays on the record.
        EXPECT_EQ(rec->retries, 1u);
    }

    // The recovered cell is indistinguishable from one that never
    // failed.
    RunnerOptions base;
    base.cellRunner = fakeCell;
    EXPECT_EQ(assembleJson(spec, path_, base),
              referenceJson(spec, path_ + ".ref", base));
}

TEST_F(ClaimExecutorTest, CellFailsOnlyAfterRetryExhaustion)
{
    SweepSpec spec = tinySpec();
    std::vector<SweepCell> cells = expandSweep(spec);
    const std::size_t bad_index = 2;
    const std::string error = "deterministic cell failure";

    auto failing = [&](const SweepSpec &s, const SweepCell &c,
                       std::size_t tc) -> CellResult {
        if (c.index == bad_index)
            throw std::runtime_error(error);
        return fakeCell(s, c, tc);
    };

    std::string bad_key;
    std::uint64_t attempts = 0;
    {
        auto store = openShared();
        CellCache cache(*store, kFingerprint);
        bad_key = cache.cellKey(spec, cells[bad_index], 0);
        WorkerOptions w;
        w.owner = "w1";
        w.maxRetries = 3;
        w.cellRunner = [&](const SweepSpec &s, const SweepCell &c,
                           std::size_t tc) {
            if (c.index == bad_index)
                ++attempts;
            return failing(s, c, tc);
        };
        WorkerStats stats = runSweepWorker(spec, cache, w);
        EXPECT_EQ(stats.committed, 3u);
        EXPECT_EQ(stats.retriesRecorded, 2u);
        EXPECT_EQ(stats.exhausted, 1u);
    }
    // The policy limit is a total-attempt budget.
    EXPECT_EQ(attempts, 3u);
    {
        auto store = openShared();
        store::ClaimTable table(kFingerprint);
        auto rec = table.get(store->beginRead(), bad_key);
        ASSERT_TRUE(rec.has_value());
        EXPECT_EQ(rec->state, store::ClaimState::Failed);
        EXPECT_EQ(rec->retries, 3u);
        EXPECT_EQ(rec->error, error);
    }

    // Assembly marks exactly that cell failed — with the same
    // bytes a single-process run with the same failure produces.
    RunnerOptions base;
    base.cellRunner = failing;
    std::string assembled = assembleJson(spec, path_, base);
    EXPECT_EQ(assembled,
              referenceJson(spec, path_ + ".ref", base));
    EXPECT_NE(assembled.find(error), std::string::npos);
}

TEST_F(ClaimExecutorTest, ExpiredLeaseIsReclaimedAndReRun)
{
    SweepSpec spec = tinySpec();
    std::vector<SweepCell> cells = expandSweep(spec);
    const std::size_t stuck_index = 0;

    // A crashed worker's footprint: a live claim whose epoch is
    // far behind the heartbeat. Its retry count already sits one
    // below the limit, so a reclaim that charged a retry would
    // terminally fail the cell.
    std::string stuck_key;
    {
        auto store = openShared();
        CellCache cache(*store, kFingerprint);
        stuck_key = cache.cellKey(spec, cells[stuck_index], 0);
        store::ClaimTable table(kFingerprint);
        store::WriteTx tx = store->beginWrite();
        store::ClaimRecord rec;
        rec.owner = "ghost";
        rec.state = store::ClaimState::Claimed;
        rec.epoch = 1;
        rec.retries = 2;
        table.put(tx, stuck_key, rec);
        tx.put(store::ClaimTable::heartbeatKey(kFingerprint),
               "100");
        tx.commit();
    }

    {
        auto store = openShared();
        CellCache cache(*store, kFingerprint);
        WorkerOptions w;
        w.owner = "rescuer";
        w.leaseTicks = 8;  // 100 - 1 >> 8: expired
        w.maxRetries = 3;
        w.cellRunner = fakeCell;
        WorkerStats stats = runSweepWorker(spec, cache, w);
        EXPECT_EQ(stats.committed, 4u);
        EXPECT_EQ(stats.reclaimed, 1u);
        EXPECT_EQ(stats.exhausted, 0u);
    }
    {
        auto store = openShared();
        store::ClaimTable table(kFingerprint);
        auto rec = table.get(store->beginRead(), stuck_key);
        ASSERT_TRUE(rec.has_value());
        EXPECT_EQ(rec->state, store::ClaimState::Done);
        EXPECT_EQ(rec->owner, "rescuer");
        // Reclaiming is free: only execution failures charge
        // retries, so lease churn can never exhaust a cell.
        EXPECT_EQ(rec->retries, 2u);
    }

    RunnerOptions base;
    base.cellRunner = fakeCell;
    EXPECT_EQ(assembleJson(spec, path_, base),
              referenceJson(spec, path_ + ".ref", base));
}

TEST_F(ClaimExecutorTest, CorruptHeartbeatHealsByFreeReclaim)
{
    SweepSpec spec = tinySpec();
    std::vector<SweepCell> cells = expandSweep(spec);

    // A corrupt heartbeat record parses as 0, so the bumped
    // counter restarts at 1 — *below* every recorded epoch. The
    // claim must read as infinitely old (not as fresh forever, and
    // not underflow into a retry charge): the cell is reclaimed at
    // no cost and the keyspace heals.
    std::string stuck_key;
    {
        auto store = openShared();
        CellCache cache(*store, kFingerprint);
        stuck_key = cache.cellKey(spec, cells[0], 0);
        store::ClaimTable table(kFingerprint);
        store::WriteTx tx = store->beginWrite();
        store::ClaimRecord rec;
        rec.owner = "ghost";
        rec.state = store::ClaimState::Claimed;
        rec.epoch = 50;
        rec.retries = 2;  // one reclaim charge from terminal
        table.put(tx, stuck_key, rec);
        tx.put(store::ClaimTable::heartbeatKey(kFingerprint),
               "not a number");
        tx.commit();
    }

    {
        auto store = openShared();
        CellCache cache(*store, kFingerprint);
        WorkerOptions w;
        w.owner = "healer";
        w.leaseTicks = 8;
        w.maxRetries = 3;
        w.cellRunner = fakeCell;
        WorkerStats stats = runSweepWorker(spec, cache, w);
        EXPECT_EQ(stats.committed, 4u);
        EXPECT_EQ(stats.reclaimed, 1u);
        EXPECT_EQ(stats.exhausted, 0u);
    }
    {
        auto store = openShared();
        store::ClaimTable table(kFingerprint);
        store::ReadTx read = store->beginRead();
        auto rec = table.get(read, stuck_key);
        ASSERT_TRUE(rec.has_value());
        EXPECT_EQ(rec->state, store::ClaimState::Done);
        EXPECT_EQ(rec->owner, "healer");
        EXPECT_EQ(rec->retries, 2u);
        // The counter is a decimal clock again, ahead of every
        // epoch (what check_store.py asserts).
        EXPECT_GE(table.heartbeat(read), rec->epoch);
    }

    RunnerOptions base;
    base.cellRunner = fakeCell;
    EXPECT_EQ(assembleJson(spec, path_, base),
              referenceJson(spec, path_ + ".ref", base));
}

TEST_F(ClaimExecutorTest, RefresherKeepsSlowCellLeaseFresh)
{
    SweepSpec spec = tinySpec();
    std::vector<SweepCell> cells = expandSweep(spec);

    // While cell 0 executes, a peer races the heartbeat far past
    // the lease length, then waits for the owner's background
    // refresher to pull the claim's epoch back within it. Without
    // refreshing, the lease would sit expired for the whole
    // execution (age ~12 >> leaseTicks 4) and never recover.
    std::atomic<bool> refreshed{false};
    WorkerStats stats;
    {
        auto store = openShared();
        CellCache cache(*store, kFingerprint);
        std::string slow_key = cache.cellKey(spec, cells[0], 0);
        WorkerOptions w;
        w.owner = "tortoise";
        w.leaseTicks = 4;
        w.refreshMs = 10;
        w.cellRunner = [&](const SweepSpec &s, const SweepCell &c,
                           std::size_t tc) {
            if (c.index == 0) {
                auto peer = openShared();
                store::ClaimTable table(kFingerprint);
                for (int i = 0; i < 12; ++i) {
                    store::WriteTx tx = peer->beginWrite();
                    table.bumpHeartbeat(tx);
                    tx.commit();
                }
                auto deadline = std::chrono::steady_clock::now() +
                                std::chrono::seconds(10);
                while (std::chrono::steady_clock::now() <
                       deadline) {
                    bool fresh = false;
                    {
                        // Scope the read tx tightly: in shared
                        // mode it holds the store gate, which the
                        // refresher needs to land its write.
                        store::ReadTx read = peer->beginRead();
                        auto rec = table.get(read, slow_key);
                        std::uint64_t hb = table.heartbeat(read);
                        fresh =
                            rec &&
                            rec->state ==
                                store::ClaimState::Claimed &&
                            rec->owner == "tortoise" &&
                            hb - rec->epoch <= 4;
                    }
                    if (fresh) {
                        refreshed = true;
                        break;
                    }
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5));
                }
            }
            return fakeCell(s, c, tc);
        };
        stats = runSweepWorker(spec, cache, w);
    }
    EXPECT_TRUE(refreshed.load());
    EXPECT_GE(stats.refreshes, 1u);
    EXPECT_EQ(stats.committed, 4u);
    EXPECT_EQ(stats.lostLeases, 0u);

    RunnerOptions base;
    base.cellRunner = fakeCell;
    EXPECT_EQ(assembleJson(spec, path_, base),
              referenceJson(spec, path_ + ".ref", base));
}

TEST_F(ClaimExecutorTest, LiveLeaseIsNotStolen)
{
    SweepSpec spec = tinySpec();
    std::vector<SweepCell> cells = expandSweep(spec);

    // Another worker holds a *fresh* lease on cell 0.
    std::string held_key;
    {
        auto store = openShared();
        CellCache cache(*store, kFingerprint);
        held_key = cache.cellKey(spec, cells[0], 0);
        store::ClaimTable table(kFingerprint);
        store::WriteTx tx = store->beginWrite();
        std::uint64_t hb = table.bumpHeartbeat(tx);
        store::ClaimRecord rec;
        rec.owner = "busy-peer";
        rec.state = store::ClaimState::Claimed;
        rec.epoch = hb;
        table.put(tx, held_key, rec);
        tx.commit();
    }

    // With a huge lease the peer's claim never expires; the worker
    // must do the other three cells, then poll, and give up only
    // when we complete the peer's cell for it.
    std::thread completer;
    {
        auto store = openShared();
        CellCache cache(*store, kFingerprint);
        WorkerOptions w;
        w.owner = "patient";
        w.leaseTicks = 1'000'000;
        w.pollMs = 10;
        w.cellRunner = fakeCell;
        completer = std::thread([&] {
            // "busy-peer" eventually commits its cell.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(150));
            auto peer_store = openShared();
            CellCache peer_cache(*peer_store, kFingerprint);
            store::ClaimTable table(kFingerprint);
            CellResult r = fakeCell(spec, cells[0], 0);
            store::WriteTx tx = peer_store->beginWrite();
            table.bumpHeartbeat(tx);
            auto rec = table.get(tx, held_key);
            ASSERT_TRUE(rec.has_value());
            rec->state = store::ClaimState::Done;
            tx.put(peer_cache.storeKey(held_key),
                   encodeCellResult(r));
            table.put(tx, held_key, *rec);
            tx.commit();
        });
        WorkerStats stats = runSweepWorker(spec, cache, w);
        EXPECT_EQ(stats.committed, 3u);
        EXPECT_EQ(stats.reclaimed, 0u);
        EXPECT_GE(stats.polls, 1u);
    }
    completer.join();

    RunnerOptions base;
    base.cellRunner = fakeCell;
    EXPECT_EQ(assembleJson(spec, path_, base),
              referenceJson(spec, path_ + ".ref", base));
}

} // namespace
} // namespace osp
