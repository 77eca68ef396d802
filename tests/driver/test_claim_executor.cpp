/** @file Tests for the distributed claim-loop executor: worker-
 *  count byte-invariance of the assembled document, cross-worker
 *  retry of failed cells up to the policy limit (terminal failure
 *  only on exhaustion), reclamation of a dead owner's claim (free
 *  of retry charge, including after a real SIGKILL), that a live
 *  owner's claim is never stolen and a second live worker with the
 *  same owner id is rejected, the claim-aware assembly of
 *  exhausted failures, and that cells execute outside the store's
 *  writer gate. Concurrency scenarios run two shared-mode store
 *  handles in one process — flock(2) makes them contend exactly
 *  like two processes; the crash scenario forks a real one. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

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
        // The store, its gate, the reference store and every owner
        // lock sidecar share path_'s name as a prefix.
        std::filesystem::path base(path_);
        std::string stem = base.filename().string();
        for (const auto &entry : std::filesystem::directory_iterator(
                 base.parent_path())) {
            std::string name = entry.path().filename().string();
            if (name.compare(0, stem.size(), stem) == 0)
                std::filesystem::remove(entry.path());
        }
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
    // Every cell committed exactly once across workers (both
    // owners stay alive, so no reclaims happen).
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
        store::ClaimRecord rec;
        rec.owner = "w1";
        rec.state = store::ClaimState::Retry;
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

TEST_F(ClaimExecutorTest, DeadOwnerIsReclaimedFree)
{
    SweepSpec spec = tinySpec();
    std::vector<SweepCell> cells = expandSweep(spec);
    const std::size_t stuck_index = 0;

    // A crashed worker's footprint: a live claim whose owner lock
    // nobody holds. Its retry count already sits one below the
    // limit, so a reclaim that charged a retry would terminally
    // fail the cell.
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
        rec.retries = 2;
        table.put(tx, stuck_key, rec);
        tx.commit();
    }

    {
        auto store = openShared();
        CellCache cache(*store, kFingerprint);
        WorkerOptions w;
        w.owner = "rescuer";
        w.maxRetries = 3;
        w.cellRunner = fakeCell;
        WorkerStats stats = runSweepWorker(spec, cache, w);
        EXPECT_EQ(stats.committed, 4u);
        EXPECT_EQ(stats.reclaimed, 1u);
        EXPECT_EQ(stats.exhausted, 0u);
        // Reclaimed on the first pass: nothing to wait for.
        EXPECT_EQ(stats.polls, 0u);
    }
    {
        auto store = openShared();
        store::ClaimTable table(kFingerprint);
        auto rec = table.get(store->beginRead(), stuck_key);
        ASSERT_TRUE(rec.has_value());
        EXPECT_EQ(rec->state, store::ClaimState::Done);
        EXPECT_EQ(rec->owner, "rescuer");
        // Reclaiming is free: only execution failures charge
        // retries, so crashes alone can never exhaust a cell.
        EXPECT_EQ(rec->retries, 2u);
    }

    RunnerOptions base;
    base.cellRunner = fakeCell;
    EXPECT_EQ(assembleJson(spec, path_, base),
              referenceJson(spec, path_ + ".ref", base));
}

TEST_F(ClaimExecutorTest, KilledWorkerIsReclaimedAfterExit)
{
    SweepSpec spec = tinySpec();

    // A real crash: the child claims one cell and SIGKILLs itself
    // holding it, so only the kernel can release its owner lock.
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        try {
            auto store = openShared();
            CellCache cache(*store, kFingerprint);
            WorkerOptions w;
            w.owner = "victim";
            w.cellRunner = fakeCell;
            w.killAfterFirstClaim = true;
            runSweepWorker(spec, cache, w);
        } catch (...) {
        }
        ::_exit(1);  // only reached when the kill seam failed
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status)) << "child exited " << status;
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    WorkerStats stats;
    {
        auto store = openShared();
        CellCache cache(*store, kFingerprint);
        WorkerOptions w;
        w.owner = "survivor";
        w.cellRunner = fakeCell;
        stats = runSweepWorker(spec, cache, w);
    }
    EXPECT_EQ(stats.reclaimed, 1u);
    EXPECT_EQ(stats.committed, 4u);
    EXPECT_EQ(stats.exhausted, 0u);

    RunnerOptions base;
    base.cellRunner = fakeCell;
    EXPECT_EQ(assembleJson(spec, path_, base),
              referenceJson(spec, path_ + ".ref", base));
}

TEST_F(ClaimExecutorTest, LiveOwnerIsNotStolen)
{
    SweepSpec spec = tinySpec();
    std::vector<SweepCell> cells = expandSweep(spec);

    // Another worker, alive (we hold its owner lock), has claimed
    // cell 0.
    store::FileLock peer_alive(
        store::ClaimTable::ownerLockPath(path_, "busy-peer"));
    ASSERT_TRUE(peer_alive.tryLock("worker busy-peer", 0));
    std::string held_key;
    {
        auto store = openShared();
        CellCache cache(*store, kFingerprint);
        held_key = cache.cellKey(spec, cells[0], 0);
        store::ClaimTable table(kFingerprint);
        store::WriteTx tx = store->beginWrite();
        store::ClaimRecord rec;
        rec.owner = "busy-peer";
        rec.state = store::ClaimState::Claimed;
        table.put(tx, held_key, rec);
        tx.commit();
    }

    // The worker must do the other three cells, then poll, and
    // give up only when the peer completes its cell.
    std::thread completer;
    {
        auto store = openShared();
        CellCache cache(*store, kFingerprint);
        WorkerOptions w;
        w.owner = "patient";
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

TEST_F(ClaimExecutorTest, DuplicateLiveOwnerIsRejected)
{
    SweepSpec spec = tinySpec();

    // A live worker already runs as "twin". A second one would
    // take the first's claims for stale claims of its own and run
    // cells twice; it must fail at start instead, naming the
    // holder.
    store::FileLock first(
        store::ClaimTable::ownerLockPath(path_, "twin"));
    ASSERT_TRUE(first.tryLock("worker twin", 0));

    std::atomic<int> executions{0};
    {
        auto store = openShared();
        CellCache cache(*store, kFingerprint);
        WorkerOptions w;
        w.owner = "twin";
        w.cellRunner = [&](const SweepSpec &s, const SweepCell &c,
                           std::size_t tc) {
            ++executions;
            return fakeCell(s, c, tc);
        };
        try {
            runSweepWorker(spec, cache, w);
            ADD_FAILURE() << "a second live 'twin' worker ran";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "pid " + std::to_string(::getpid()) +
                          " (worker twin)"),
                      std::string::npos)
                << e.what();
        }
        // It claimed nothing.
        std::size_t claims = 0;
        store->beginRead().scan(
            "claim/", [&](std::string_view, std::string_view) {
                ++claims;
                return true;
            });
        EXPECT_EQ(claims, 0u);
    }
    EXPECT_EQ(executions.load(), 0);

    // Once the first worker is gone the id is free again.
    first.unlock();
    {
        auto store = openShared();
        CellCache cache(*store, kFingerprint);
        WorkerOptions w;
        w.owner = "twin";
        w.cellRunner = fakeCell;
        EXPECT_EQ(runSweepWorker(spec, cache, w).committed, 4u);
    }
}

} // namespace
} // namespace osp
