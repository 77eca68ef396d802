/** @file Tests for the mmap page store: basic KV semantics,
 *  persistence across reopen, overflow values, leaf splitting,
 *  freelist reuse, crash recovery via commit fail points and torn
 *  meta pages, snapshot isolation of readers against a concurrent
 *  writer, and corruption rejection. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>

#include "store/page_store.hh"

namespace osp::store
{
namespace
{

/** Number of keys @p tx sees: a scan of the empty prefix. */
std::uint64_t
keyCount(const ReadTx &tx)
{
    std::uint64_t keys = 0;
    tx.scan("", [&](std::string_view, std::string_view) {
        ++keys;
        return true;
    });
    return keys;
}

/** A unique store path in the test temp dir, removed on teardown. */
class PageStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = (std::filesystem::temp_directory_path() /
                 ("osp_store_test_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name()) +
                  ".db"))
                    .string();
        std::filesystem::remove(path_);
    }

    void TearDown() override { std::filesystem::remove(path_); }

    std::string path_;
};

TEST_F(PageStoreTest, PutGetAndReopen)
{
    {
        auto store = PageStore::open(path_);
        WriteTx tx = store->beginWrite();
        tx.put("alpha", "1");
        tx.put("beta", "2");
        tx.commit();
        auto read = store->beginRead();
        EXPECT_EQ(read.get("alpha"), "1");
        EXPECT_EQ(read.get("beta"), "2");
        EXPECT_EQ(read.get("gamma"), std::nullopt);
        EXPECT_EQ(keyCount(read), 2u);
    }
    // Durable across process-lifetime boundaries (fresh open).
    auto store = PageStore::open(path_);
    auto read = store->beginRead();
    EXPECT_EQ(read.get("alpha"), "1");
    EXPECT_EQ(read.get("beta"), "2");
}

TEST_F(PageStoreTest, OverwriteAndErase)
{
    auto store = PageStore::open(path_);
    {
        WriteTx tx = store->beginWrite();
        tx.put("k", "old");
        tx.commit();
    }
    {
        WriteTx tx = store->beginWrite();
        tx.put("k", "new");
        EXPECT_EQ(tx.get("k"), "new");  // reads through staging
        tx.commit();
    }
    EXPECT_EQ(store->beginRead().get("k"), "new");
    {
        WriteTx tx = store->beginWrite();
        EXPECT_TRUE(tx.erase("k"));
        EXPECT_FALSE(tx.erase("k"));
        tx.commit();
    }
    EXPECT_EQ(store->beginRead().get("k"), std::nullopt);
    EXPECT_EQ(keyCount(store->beginRead()), 0u);
}

TEST_F(PageStoreTest, DroppedWriteTxRollsBack)
{
    auto store = PageStore::open(path_);
    {
        WriteTx tx = store->beginWrite();
        tx.put("k", "v");
        // no commit
    }
    EXPECT_EQ(store->beginRead().get("k"), std::nullopt);
}

TEST_F(PageStoreTest, OverflowValuesRoundTrip)
{
    // Values far beyond one page go to overflow runs.
    std::string big(200 * 1024, 'x');
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<char>('a' + i % 26);
    {
        auto store = PageStore::open(path_);
        WriteTx tx = store->beginWrite();
        tx.put("big", big);
        tx.put("small", "s");
        tx.commit();
    }
    auto store = PageStore::open(path_);
    EXPECT_EQ(store->beginRead().get("big"), big);
    EXPECT_EQ(store->beginRead().get("small"), "s");
}

TEST_F(PageStoreTest, ManyKeysSplitLeavesAndScanInOrder)
{
    auto store = PageStore::open(path_);
    {
        WriteTx tx = store->beginWrite();
        for (int i = 0; i < 500; ++i) {
            char key[32];
            std::snprintf(key, sizeof key, "key/%05d", i);
            tx.put(key, "value-" + std::to_string(i));
        }
        tx.commit();
    }
    EXPECT_GT(store->info().leafPages, 1u);

    auto read = store->beginRead();
    EXPECT_EQ(keyCount(read), 500u);
    int n = 0;
    std::string prev;
    read.scan("key/", [&](std::string_view k, std::string_view v) {
        EXPECT_GT(std::string(k), prev);
        prev = std::string(k);
        ++n;
        EXPECT_EQ(v.substr(0, 6), "value-");
        return true;
    });
    EXPECT_EQ(n, 500);

    // Prefix scans see only their subtree; early exit works.
    n = 0;
    read.scan("key/0002",
              [&](std::string_view, std::string_view) {
                  ++n;
                  return true;
              });
    EXPECT_EQ(n, 10);
    n = 0;
    read.scan("key/", [&](std::string_view, std::string_view) {
        return ++n < 7;
    });
    EXPECT_EQ(n, 7);
}

TEST_F(PageStoreTest, FreelistReusePlateausFileSize)
{
    auto store = PageStore::open(path_);
    std::uint64_t high_water = 0;
    for (int round = 0; round < 30; ++round) {
        WriteTx tx = store->beginWrite();
        for (int k = 0; k < 20; ++k)
            tx.put(std::string("k") + std::to_string(k),
                   "round-" + std::to_string(round));
        tx.commit();
        std::uint64_t pages = store->info().numPages;
        if (round == 10)
            high_water = pages;
        if (round > 10) {
            // Copy-on-write churn must recycle pages, not grow the
            // file forever (some slack for freelist-run resizing).
            EXPECT_LE(pages, high_water + 8)
                << "round " << round;
        }
    }
    EXPECT_GT(store->info().freePages +
                  store->info().pendingPages,
              0u);
}

TEST_F(PageStoreTest, KillBeforeMetaWriteRecoversOldState)
{
    auto store = PageStore::open(path_);
    {
        WriteTx tx = store->beginWrite();
        tx.put("stable", "v1");
        tx.commit();
    }
    store->setFailPoint(PageStore::FailPoint::BeforeMetaWrite);
    {
        WriteTx tx = store->beginWrite();
        tx.put("stable", "v2");
        tx.put("fresh", "x");
        EXPECT_THROW(tx.commit(), std::runtime_error);
    }
    // In-process state rolled back...
    EXPECT_EQ(store->beginRead().get("stable"), "v1");
    EXPECT_EQ(store->beginRead().get("fresh"), std::nullopt);
    // ...and the next commit works on the old tree.
    {
        WriteTx tx = store->beginWrite();
        tx.put("after", "y");
        tx.commit();
    }
    EXPECT_EQ(store->beginRead().get("stable"), "v1");
    EXPECT_EQ(store->beginRead().get("after"), "y");

    // The on-disk image never saw the aborted commit's meta: a
    // fresh open (the "kill -9 and restart" view) agrees.
    store.reset();
    auto reopened = PageStore::open(path_);
    EXPECT_EQ(reopened->beginRead().get("stable"), "v1");
    EXPECT_EQ(reopened->beginRead().get("fresh"), std::nullopt);
    EXPECT_EQ(reopened->beginRead().get("after"), "y");
}

TEST_F(PageStoreTest, TornMetaFallsBackToOtherSlot)
{
    std::uint32_t page_size = 0;
    {
        auto store = PageStore::open(path_);
        page_size = store->info().pageSize;
        {
            WriteTx tx = store->beginWrite();
            tx.put("a", "1");
            tx.commit();  // txid 2 -> meta slot 0
        }
        {
            WriteTx tx = store->beginWrite();
            tx.put("b", "2");
            tx.commit();  // txid 3 -> meta slot 1
        }
    }
    // Corrupt the newest meta (slot 1): flip a checksummed byte.
    {
        std::FILE *f = std::fopen(path_.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, static_cast<long>(page_size) + 40, SEEK_SET);
        int c = std::fgetc(f);
        std::fseek(f, static_cast<long>(page_size) + 40, SEEK_SET);
        std::fputc(c ^ 0xff, f);
        std::fclose(f);
    }
    // Open falls back to slot 0: the tx1 state.
    auto store = PageStore::open(path_);
    EXPECT_EQ(store->beginRead().get("a"), "1");
    EXPECT_EQ(store->beginRead().get("b"), std::nullopt);
}

TEST_F(PageStoreTest, BothMetasCorruptIsAnError)
{
    {
        auto store = PageStore::open(path_);
        WriteTx tx = store->beginWrite();
        tx.put("a", "1");
        tx.commit();
    }
    {
        std::FILE *f = std::fopen(path_.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        // Smash the magic of both meta pages.
        for (long off : {16L, 4096L + 16L, 8192L + 16L,
                         16384L + 16L, 65536L + 16L}) {
            std::fseek(f, off, SEEK_SET);
            std::fputc(0, f);
        }
        std::fclose(f);
    }
    EXPECT_THROW(PageStore::open(path_), std::runtime_error);
}

/** A file cut back past the newer commit's pages, but not past the
 *  older one's, is still a truncated file: the newer meta slot is
 *  checksummed, so it was committed, and the store fails closed
 *  instead of silently serving the older snapshot. */
TEST_F(PageStoreTest, TruncationBehindTheOlderSnapshotIsAnError)
{
    std::uintmax_t first_len = 0;
    {
        auto store = PageStore::open(path_);
        {
            WriteTx tx = store->beginWrite();
            tx.put("a", "1");
            tx.commit();
        }
        first_len = std::filesystem::file_size(path_);
        {
            WriteTx tx = store->beginWrite();
            for (int i = 0; i < 100; ++i)
                tx.put("big/" + std::to_string(i),
                       std::string(4000, 'v'));
            tx.commit();
        }
        ASSERT_GT(std::filesystem::file_size(path_), first_len);
    }
    ASSERT_NO_THROW(PageStore::open(path_));
    std::filesystem::resize_file(path_, first_len);
    try {
        PageStore::open(path_);
        FAIL() << "opened a truncated store";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("truncated store"),
                  std::string::npos)
            << e.what();
    }
    StoreOptions read_only;
    read_only.readOnly = true;
    EXPECT_THROW(PageStore::open(path_, read_only),
                 std::runtime_error);
}

TEST_F(PageStoreTest, TruncatedFileIsAnError)
{
    std::uint32_t page_size = 0;
    {
        auto store = PageStore::open(path_);
        page_size = store->info().pageSize;
        // Two commits so BOTH meta slots reference the grown file
        // (otherwise open could legitimately fall back to the
        // still-valid older slot).
        for (int round = 0; round < 2; ++round) {
            WriteTx tx = store->beginWrite();
            for (int i = 0; i < 100; ++i)
                tx.put(std::string("k") + std::to_string(round) +
                           "/" + std::to_string(i),
                       std::string(1000, 'v'));
            tx.commit();
        }
    }
    // Keep the two meta pages, drop the data behind them. Both
    // metas' numPages now point beyond the file: corrupt, not a
    // silently-empty store.
    std::filesystem::resize_file(path_, 2 * page_size);
    EXPECT_THROW(PageStore::open(path_), std::runtime_error);
}

TEST_F(PageStoreTest, ReaderIsSnapshotIsolatedFromWriter)
{
    auto store = PageStore::open(path_);
    {
        WriteTx tx = store->beginWrite();
        tx.put("k", "before");
        tx.put("gone", "x");
        tx.commit();
    }

    ReadTx snapshot = store->beginRead();
    {
        WriteTx tx = store->beginWrite();
        tx.put("k", "after");
        tx.erase("gone");
        tx.put("new", "y");
        tx.commit();
    }
    // The snapshot still sees the world at its begin...
    EXPECT_EQ(snapshot.get("k"), "before");
    EXPECT_EQ(snapshot.get("gone"), "x");
    EXPECT_EQ(snapshot.get("new"), std::nullopt);
    EXPECT_EQ(keyCount(snapshot), 2u);
    // ...while new readers see the commit.
    EXPECT_EQ(store->beginRead().get("k"), "after");
    EXPECT_EQ(store->beginRead().get("new"), "y");
}

TEST_F(PageStoreTest, SnapshotSurvivesChurnAndGrowth)
{
    auto store = PageStore::open(path_);
    {
        WriteTx tx = store->beginWrite();
        tx.put("pinned", std::string(5000, 'p'));
        tx.commit();
    }
    ReadTx snapshot = store->beginRead();

    // Heavy churn: many commits, overflow values, file growth (the
    // mapping is replaced while the snapshot holds the old view).
    std::mt19937 rng(7);
    for (int round = 0; round < 15; ++round) {
        WriteTx tx = store->beginWrite();
        for (int k = 0; k < 10; ++k) {
            std::string v(1000 + rng() % 20000, 'a');
            tx.put("churn" + std::to_string(rng() % 50), v);
        }
        tx.commit();
    }
    EXPECT_EQ(snapshot.get("pinned"), std::string(5000, 'p'));
    EXPECT_EQ(keyCount(snapshot), 1u);
}

TEST_F(PageStoreTest, PendingPagesNotReusedWhileReaderLive)
{
    auto store = PageStore::open(path_);
    {
        WriteTx tx = store->beginWrite();
        tx.put("k", std::string(3000, 'v'));
        tx.commit();
    }
    {
        ReadTx reader = store->beginRead();
        {
            WriteTx tx = store->beginWrite();
            tx.put("k", std::string(3000, 'w'));
            tx.commit();
        }
        // Pages of the reader's tree were freed by the commit but
        // must sit pending, not free.
        StoreInfo info = store->info();
        EXPECT_GT(info.pendingPages, 0u);
        EXPECT_EQ(reader.get("k"), std::string(3000, 'v'));
    }
    // Reader gone: the next commit may promote and reuse them.
    {
        WriteTx tx = store->beginWrite();
        tx.put("k2", "x");
        tx.commit();
    }
    EXPECT_GT(store->info().freePages + store->info().pendingPages,
              0u);
}

TEST_F(PageStoreTest, ReadOnlyOpenSeesDataAndRejectsWrites)
{
    {
        auto store = PageStore::open(path_);
        WriteTx tx = store->beginWrite();
        tx.put("k", "v");
        tx.commit();
    }
    StoreOptions opts;
    opts.readOnly = true;
    auto store = PageStore::open(path_, opts);
    EXPECT_EQ(store->beginRead().get("k"), "v");
    EXPECT_THROW(store->beginWrite(), std::runtime_error);
}

TEST_F(PageStoreTest, ReadOnlyOpenOfMissingFileIsAnError)
{
    StoreOptions opts;
    opts.readOnly = true;
    EXPECT_THROW(PageStore::open(path_, opts),
                 std::runtime_error);
}

TEST_F(PageStoreTest, KeySizeLimitEnforced)
{
    auto store = PageStore::open(path_);
    WriteTx tx = store->beginWrite();
    EXPECT_THROW(tx.put("", "v"), std::runtime_error);
    EXPECT_THROW(tx.put(std::string(maxKeySize + 1, 'k'), "v"),
                 std::runtime_error);
    tx.put(std::string(maxKeySize, 'k'), "v");  // at the limit: ok
    tx.commit();
}

TEST_F(PageStoreTest, MetaChecksumMatchesToolContract)
{
    // tools/check_store.py re-computes this checksum; pin the
    // algorithm with a fixed meta.
    Meta m;
    m.pageSize = 4096;
    m.root = 3;
    m.freelist = 4;
    m.numPages = 7;
    m.txid = 9;
    std::uint64_t sum = metaChecksum(m);
    EXPECT_NE(sum, 0u);
    m.checksum = sum;
    EXPECT_EQ(metaChecksum(m), sum);  // checksum field excluded
    m.txid = 10;
    EXPECT_NE(metaChecksum(m), sum);
}

} // namespace
} // namespace osp::store
