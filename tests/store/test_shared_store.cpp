/** @file Tests for multi-process store arbitration: the exclusive
 *  open-lifetime writer gate (clear double-open diagnostics, the
 *  --store-wait path, lockless read-only opens) and shared worker
 *  mode (per-transaction gating, cross-handle visibility through
 *  refresh, nested-transaction rejection, gate timeouts), and
 *  snapshot isolation: a reader concurrent with a writer sees the
 *  old or the new value of a multi-page record together with the
 *  heartbeat committed beside it, never a torn mix, and a commit
 *  killed at the meta-write fail point leaves the previous pair
 *  intact.
 *
 *  flock(2) locks belong to the open file description, so two
 *  PageStore handles in one process contend exactly like two
 *  processes — every cross-process scenario here runs in-process.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>

#include "store/claim_table.hh"
#include "store/page_store.hh"

namespace osp::store
{
namespace
{

class SharedStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = (std::filesystem::temp_directory_path() /
                 ("osp_shared_test_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name()) +
                  ".db"))
                    .string();
        std::filesystem::remove(path_);
        std::filesystem::remove(path_ + ".lock");
    }

    void
    TearDown() override
    {
        std::filesystem::remove(path_);
        std::filesystem::remove(path_ + ".lock");
    }

    StoreOptions
    sharedOptions(long tx_wait_ms = 60000) const
    {
        StoreOptions o;
        o.shared = true;
        o.txLockWaitMs = tx_wait_ms;
        return o;
    }

    std::string path_;
};

TEST_F(SharedStoreTest, SecondReadWriteOpenFailsWithDiagnostic)
{
    auto first = PageStore::open(path_);
    try {
        auto second = PageStore::open(path_);
        FAIL() << "second read-write open must throw";
    } catch (const std::runtime_error &e) {
        std::string msg = e.what();
        // The diagnostic names the store, the holder, and the
        // escape hatch — satellite: no UB, a clear failure.
        EXPECT_NE(msg.find(path_), std::string::npos) << msg;
        EXPECT_NE(msg.find("exclusive"), std::string::npos) << msg;
        EXPECT_NE(msg.find("--store-wait"), std::string::npos)
            << msg;
    }
}

TEST_F(SharedStoreTest, LockWaitRidesOutAShortHolder)
{
    auto holder = PageStore::open(path_);
    std::thread releaser([&holder] {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(100));
        holder.reset();
    });
    StoreOptions wait;
    wait.lockWaitMs = 10000;
    // Blocks until the holder releases, then succeeds.
    auto second = PageStore::open(path_, wait);
    releaser.join();
    EXPECT_EQ(second->beginRead().size(), 0u);
}

TEST_F(SharedStoreTest, ReadOnlyOpenTakesNoLock)
{
    auto writer = PageStore::open(path_);
    {
        WriteTx tx = writer->beginWrite();
        tx.put("k", "v");
        tx.commit();
    }
    StoreOptions ro;
    ro.readOnly = true;
    // Concurrent with the exclusive writer: read-only inspection
    // tools must never be locked out.
    auto reader = PageStore::open(path_, ro);
    EXPECT_EQ(reader->beginRead().get("k"), "v");
}

TEST_F(SharedStoreTest, SharedHandlesSeeEachOthersCommits)
{
    auto a = PageStore::open(path_, sharedOptions());
    auto b = PageStore::open(path_, sharedOptions());

    {
        WriteTx tx = a->beginWrite();
        tx.put("from-a", "1");
        tx.commit();
    }
    // b's next transaction refreshes from disk and sees a's commit.
    EXPECT_EQ(b->beginRead().get("from-a"), "1");

    {
        WriteTx tx = b->beginWrite();
        tx.put("from-b", "2");
        tx.commit();
    }
    EXPECT_EQ(a->beginRead().get("from-a"), "1");
    EXPECT_EQ(a->beginRead().get("from-b"), "2");
}

TEST_F(SharedStoreTest, SharedRefreshFollowsFileGrowth)
{
    auto a = PageStore::open(path_, sharedOptions());
    auto b = PageStore::open(path_, sharedOptions());

    // Grow the file well past its creation size through a, then
    // read every value back through b (whose mapping must refresh).
    std::string big(64 * 1024, 'x');
    for (int i = 0; i < 8; ++i) {
        WriteTx tx = a->beginWrite();
        tx.put("big" + std::to_string(i),
               big + std::to_string(i));
        tx.commit();
    }
    for (int i = 0; i < 8; ++i) {
        auto got =
            b->beginRead().get("big" + std::to_string(i));
        ASSERT_TRUE(got.has_value()) << i;
        EXPECT_EQ(*got, big + std::to_string(i));
    }
    // And interleaved writes through b still commit correctly.
    {
        WriteTx tx = b->beginWrite();
        tx.put("after-growth", "ok");
        tx.commit();
    }
    EXPECT_EQ(a->beginRead().get("after-growth"), "ok");
}

TEST_F(SharedStoreTest, NestedTransactionThrowsInSharedMode)
{
    auto store = PageStore::open(path_, sharedOptions());
    ReadTx read = store->beginRead();
    // A second transaction on the same thread would self-deadlock
    // on the gate; the store throws instead.
    EXPECT_THROW(store->beginWrite(), std::runtime_error);
    EXPECT_THROW(store->beginRead(), std::runtime_error);
}

TEST_F(SharedStoreTest, SharedOpenTimesOutAgainstExclusiveHolder)
{
    auto exclusive = PageStore::open(path_);
    try {
        auto worker = PageStore::open(path_, sharedOptions(50));
        FAIL() << "shared open must time out";
    } catch (const std::runtime_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find(path_), std::string::npos) << msg;
        EXPECT_NE(msg.find("exclusive"), std::string::npos) << msg;
    }
}

TEST_F(SharedStoreTest, TransactionGateTimesOutWithHolderHint)
{
    auto a = PageStore::open(path_, sharedOptions());
    auto b = PageStore::open(path_, sharedOptions(50));

    {
        WriteTx held = a->beginWrite();  // a holds the gate
        try {
            WriteTx blocked = b->beginWrite();
            FAIL() << "gated transaction must time out";
        } catch (const std::runtime_error &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find("writer gate"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("shared worker"), std::string::npos)
                << msg;
        }
        held.commit();
    }  // the gate is held until destruction, not commit
    // Gate released: b proceeds.
    {
        WriteTx after = b->beginWrite();
        after.put("k", "v");
        after.commit();
    }
    EXPECT_EQ(a->beginRead().get("k"), "v");
}

/** A value that pairs with heartbeat @p n: "<n>:" followed by
 *  three pages' worth of one letter chosen by @p n, so the record
 *  spans an overflow run and a torn read shows as mixed letters. */
std::string
pairedValue(std::uint64_t n, const PageStore &store)
{
    return std::to_string(n) + ":" +
           std::string(3 * store.pageSize(),
                       static_cast<char>('a' + n % 26));
}

/** The heartbeat @p value was written with; nullopt when the
 *  value is not exactly pairedValue() of its own prefix. */
std::optional<std::uint64_t>
pairedNumber(const std::string &value, const PageStore &store)
{
    std::size_t colon = value.find(':');
    if (colon == std::string::npos || colon == 0)
        return std::nullopt;
    std::uint64_t n = std::stoull(value.substr(0, colon));
    if (value != pairedValue(n, store))
        return std::nullopt;
    return n;
}

TEST_F(SharedStoreTest, SnapshotReadersSeeOldOrNewNeverTorn)
{
    // A multi-page value and the heartbeat it pairs with are
    // committed in one transaction, so any reader must observe them
    // as a pair — intact, value == heartbeat, never going backwards
    // — no matter how its reads interleave with the writer's
    // commits.
    constexpr const char *fp = "tornfp";
    const std::string key = "value/" + std::string(fp);
    const std::string hb_key = ClaimTable::heartbeatKey(fp);
    constexpr std::uint64_t rounds = 40;

    auto writer = PageStore::open(path_, sharedOptions());
    auto reader = PageStore::open(path_, sharedOptions());

    std::atomic<bool> done{false};
    std::thread publisher([&] {
        for (std::uint64_t i = 1; i <= rounds; ++i) {
            WriteTx tx = writer->beginWrite();
            tx.put(key, pairedValue(i, *writer));
            tx.put(hb_key, std::to_string(i));
            tx.commit();
        }
        done = true;
    });

    std::uint64_t last_seen = 0;
    while (!done) {
        std::optional<std::string> raw;
        std::optional<std::string> hb;
        {
            ReadTx read = reader->beginRead();
            raw = read.get(key);
            hb = read.get(hb_key);
        }
        if (!raw) {
            // Nothing committed yet; the heartbeat can't have
            // committed without the value either.
            EXPECT_FALSE(hb.has_value());
            continue;
        }
        auto n = pairedNumber(*raw, *reader);
        ASSERT_TRUE(n.has_value()) << "torn value bytes";
        ASSERT_TRUE(hb.has_value());
        // The pair is atomic and time never runs backwards.
        EXPECT_EQ(std::to_string(*n), *hb);
        EXPECT_GE(*n, last_seen);
        last_seen = *n;
    }
    publisher.join();

    // After the writer is done the final pair is durable.
    ReadTx read = reader->beginRead();
    EXPECT_EQ(pairedNumber(*read.get(key), *reader), rounds);
    EXPECT_EQ(read.get(hb_key), std::to_string(rounds));
}

TEST_F(SharedStoreTest, FailedCommitPreservesPreviousSnapshot)
{
    // Kill-point companion to the page-store crash tests: a commit
    // that dies before the meta write must leave the previously
    // committed multi-page value (and its heartbeat) intact, both
    // for this handle and for a fresh read-only open — which is
    // what a reader opening across a worker crash sees.
    constexpr const char *fp = "killfp";
    const std::string key = "value/" + std::string(fp);
    const std::string hb_key = ClaimTable::heartbeatKey(fp);

    auto store = PageStore::open(path_, sharedOptions());
    {
        WriteTx tx = store->beginWrite();
        tx.put(key, pairedValue(1, *store));
        tx.put(hb_key, "1");
        tx.commit();
    }

    store->setFailPoint(PageStore::FailPoint::BeforeMetaWrite);
    {
        WriteTx tx = store->beginWrite();
        tx.put(key, pairedValue(2, *store));
        tx.put(hb_key, "2");
        EXPECT_THROW(tx.commit(), std::runtime_error);
    }
    store->setFailPoint(PageStore::FailPoint::None);

    // In-process state rolled back to value 1...
    {
        ReadTx read = store->beginRead();
        EXPECT_EQ(pairedNumber(*read.get(key), *store), 1u);
        EXPECT_EQ(read.get(hb_key), "1");
    }
    // ...and so did the durable state a fresh reader opens.
    {
        StoreOptions ro;
        ro.readOnly = true;
        auto fresh = PageStore::open(path_, ro);
        EXPECT_EQ(
            pairedNumber(*fresh->beginRead().get(key), *fresh), 1u);
    }

    // The store keeps working on the old tree: the next commit
    // lands normally.
    {
        WriteTx tx = store->beginWrite();
        tx.put(key, pairedValue(2, *store));
        tx.put(hb_key, "2");
        tx.commit();
    }
    EXPECT_EQ(pairedNumber(*store->beginRead().get(key), *store),
              2u);
}

} // namespace
} // namespace osp::store
