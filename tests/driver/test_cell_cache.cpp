/** @file Tests for the content-addressed sweep-cell cache and its
 *  codec: lossless CellResult round-trips, cell-key purity (the
 *  same key at every thread count), warm/cold byte-identity of the
 *  results document, hash-collision safety and fingerprint
 *  eviction. */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "driver/cell_cache.hh"
#include "driver/cell_io.hh"
#include "driver/experiments.hh"
#include "driver/sweep.hh"
#include "store/page_store.hh"

namespace osp
{
namespace
{

/** One counter of the "cache" section of @p cache's --store-stats
 *  document. */
std::uint64_t
cacheCounter(CellCache &cache, std::string_view name)
{
    return cache.statsToJson()["cache"][name].asUint();
}

class CellCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = (std::filesystem::temp_directory_path() /
                 ("osp_cache_test_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name()) +
                  ".db"))
                    .string();
        std::filesystem::remove(path_);
        store_ = store::PageStore::open(path_);
    }

    void
    TearDown() override
    {
        store_.reset();
        std::filesystem::remove(path_);
    }

    std::string path_;
    std::unique_ptr<store::PageStore> store_;
};

SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.name = "tiny";
    spec.workloads = {"ab-rand", "du"};
    spec.modes = {RunMode::Full, RunMode::Accelerated};
    spec.predictors = {
        {"statistical",
         experimentPredictor(RelearnStrategy::Statistical)},
        {"eager", experimentPredictor(RelearnStrategy::Eager)}};
    spec.scale = 0.2;
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

TEST_F(CellCacheTest, CellCodecRoundTripsByteExactly)
{
    SweepSpec spec = tinySpec();
    // Tracing on: the codec must carry trace events too.
    for (const SweepCell &cell : expandSweep(spec)) {
        CellResult original = runCell(spec, cell, 256);
        ASSERT_FALSE(original.failed) << cell.workload;

        std::string encoded = encodeCellResult(original);
        std::optional<CellResult> decoded =
            decodeCellResult(encoded);
        ASSERT_TRUE(decoded.has_value()) << cell.workload;

        // Byte-exact fixpoint: encode(decode(encode(x))) ==
        // encode(x) proves every carried field round-trips
        // losslessly (doubles included).
        EXPECT_EQ(encodeCellResult(*decoded), encoded)
            << cell.workload;
        EXPECT_EQ(decoded->cell.index, original.cell.index);
        EXPECT_EQ(decoded->totals.appCycles,
                  original.totals.appCycles);
        EXPECT_EQ(decoded->pltProfile, original.pltProfile);
        EXPECT_EQ(decoded->trace.size(), original.trace.size());
    }
}

TEST_F(CellCacheTest, CodecRejectsGarbageAsNullopt)
{
    EXPECT_EQ(decodeCellResult(""), std::nullopt);
    EXPECT_EQ(decodeCellResult("not json at all"), std::nullopt);
    EXPECT_EQ(decodeCellResult("{}"), std::nullopt);
    EXPECT_EQ(decodeCellResult("{\"schema\":\"wrong-v9\"}"),
              std::nullopt);
    EXPECT_EQ(decodeCellResult("[1,2,3]"), std::nullopt);
}

TEST_F(CellCacheTest, CellKeysArePureAndDistinct)
{
    SweepSpec spec = tinySpec();
    CellCache cache(*store_, "f00d");
    auto cells = expandSweep(spec);

    std::set<std::string> keys;
    for (const SweepCell &cell : cells) {
        std::string key = cache.cellKey(spec, cell, 0);
        EXPECT_EQ(key.size(), 16u);
        // Purity: recomputing gives the same key (nothing volatile
        // — no clocks, no pointers — leaks into the context).
        EXPECT_EQ(cache.cellKey(spec, cell, 0), key);
        keys.insert(key);
    }
    // Distinct cells address distinct slots.
    EXPECT_EQ(keys.size(), cells.size());

    // The key depends on what changes the simulation...
    SweepSpec reseeded = tinySpec();
    reseeded.baseSeed = spec.baseSeed + 1;
    auto reseeded_cells = expandSweep(reseeded);
    EXPECT_NE(cache.cellKey(reseeded, reseeded_cells[0], 0),
              cache.cellKey(spec, cells[0], 0));
    EXPECT_NE(cache.cellKey(spec, cells[0], 4096),
              cache.cellKey(spec, cells[0], 0));

    // ...but not on presentation-only fields.
    SweepSpec renamed = tinySpec();
    renamed.name = "tiny-renamed";
    auto renamed_cells = expandSweep(renamed);
    EXPECT_EQ(cache.cellKey(renamed, renamed_cells[0], 0),
              cache.cellKey(spec, cells[0], 0));
}

TEST_F(CellCacheTest, WarmIncrementalRunIsByteIdenticalAcrossThreads)
{
    SweepSpec spec = tinySpec();
    CellCache cache(*store_, "f00d");

    // Cold recording run on one thread.
    RunnerOptions cold_opts;
    cold_opts.threads = 1;
    cold_opts.cache = &cache;
    SweepResult cold = runSweep(spec, cold_opts);
    ASSERT_TRUE(cold.store.present);
    ASSERT_EQ(cold.store.cellKeys.size(), cold.cells.size());
    EXPECT_EQ(cacheCounter(cache, "inserts"), cold.cells.size());

    // Warm incremental run on four threads: every cell a hit, and
    // the canonical document byte-identical — the store section's
    // keys included, proving keys are thread-count invariant.
    CellCache warm_cache(*store_, "f00d");
    RunnerOptions warm_opts;
    warm_opts.threads = 4;
    warm_opts.cache = &warm_cache;
    warm_opts.incremental = true;
    SweepResult warm = runSweep(spec, warm_opts);

    EXPECT_EQ(canonicalJson(warm), canonicalJson(cold));
    EXPECT_EQ(cacheCounter(warm_cache, "hits"), cold.cells.size());
    EXPECT_EQ(cacheCounter(warm_cache, "misses"), 0u);
    // Nothing was left to run, so no helper thread started.
    EXPECT_EQ(warm.threads, 1u);
}

TEST_F(CellCacheTest, ColdNonIncrementalRunCountsAllMisses)
{
    SweepSpec spec = tinySpec();
    CellCache cache(*store_, "f00d");
    RunnerOptions opts;
    opts.threads = 2;
    opts.cache = &cache;
    SweepResult result = runSweep(spec, opts);
    EXPECT_EQ(cacheCounter(cache, "misses"), result.cells.size());
    EXPECT_EQ(cacheCounter(cache, "hits"), 0u);
}

TEST_F(CellCacheTest, CollisionOnMismatchedCellDegradesToMiss)
{
    SweepSpec spec = tinySpec();
    auto cells = expandSweep(spec);
    CellResult real = runCell(spec, cells[0]);

    CellCache cache(*store_, "f00d");
    std::string key = cache.cellKey(spec, cells[0], 0);
    cache.commitResults({{key, &real}});

    // The right cell fetches...
    EXPECT_TRUE(cache.fetch(key, cells[0]).has_value());
    // ...but the same key presented for different coordinates (a
    // simulated 64-bit collision) must degrade to a miss, never a
    // wrong result.
    ASSERT_GT(cells.size(), 1u);
    EXPECT_EQ(cache.fetch(key, cells[1]), std::nullopt);
}

TEST_F(CellCacheTest, FetchRewritesIndexToCurrentExpansion)
{
    SweepSpec spec = tinySpec();
    auto cells = expandSweep(spec);
    CellResult real = runCell(spec, cells[0]);

    CellCache cache(*store_, "f00d");
    std::string key = cache.cellKey(spec, cells[0], 0);
    cache.commitResults({{key, &real}});

    SweepCell moved = cells[0];
    moved.index = 17;  // same coordinates, new position
    std::optional<CellResult> hit = cache.fetch(key, moved);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->cell.index, 17u);
}

TEST_F(CellCacheTest, StaleFingerprintEntriesAreEvictedOnCommit)
{
    SweepSpec spec = tinySpec();
    auto cells = expandSweep(spec);
    CellResult real = runCell(spec, cells[0]);

    CellCache old_cache(*store_, "0ld0ld0ld0ld0ld0");
    old_cache.commitResults(
        {{old_cache.cellKey(spec, cells[0], 0), &real}});

    // A new simulator build commits: the old build's entries go.
    CellCache new_cache(*store_, "new1new1new1new1");
    new_cache.commitResults(
        {{new_cache.cellKey(spec, cells[0], 0), &real}});
    EXPECT_EQ(cacheCounter(new_cache, "evictions"), 1u);

    std::size_t old_keys = 0, new_keys = 0;
    store_->beginRead().scan(
        "cell/", [&](std::string_view k, std::string_view) {
            if (k.find("cell/0ld") == 0)
                ++old_keys;
            if (k.find("cell/new1") == 0)
                ++new_keys;
            return true;
        });
    EXPECT_EQ(old_keys, 0u);
    EXPECT_EQ(new_keys, 1u);
}

TEST_F(CellCacheTest, WarmProfileHashChangesAcceleratedIdentity)
{
    SweepSpec spec = tinySpec();
    auto cells = expandSweep(spec);
    const SweepCell *accel = nullptr;
    const SweepCell *full = nullptr;
    for (const SweepCell &c : cells) {
        if (c.mode == RunMode::Accelerated && !accel)
            accel = &c;
        if (c.mode == RunMode::Full && !full)
            full = &c;
    }
    ASSERT_NE(accel, nullptr);
    ASSERT_NE(full, nullptr);

    CellCache plain(*store_, "f00d");
    CellCache warmed(*store_, "f00d");
    warmed.setWarmProfileHash(accel->workload, 0x1234);

    // Warm-started accelerated cells never alias cold ones...
    EXPECT_NE(warmed.cellKey(spec, *accel, 0),
              plain.cellKey(spec, *accel, 0));
    // ...while baseline cells (which never load a profile) keep
    // their identity.
    EXPECT_EQ(warmed.cellKey(spec, *full, 0),
              plain.cellKey(spec, *full, 0));
}

TEST_F(CellCacheTest, StoreStatsDocumentShape)
{
    CellCache cache(*store_, "f00d");
    cache.noteMisses(3);
    JsonValue stats = cache.statsToJson();
    EXPECT_EQ(stats["schema"].asString(),
              "ospredict-store-stats-v1");
    EXPECT_EQ(stats["fingerprint"].asString(), "f00d");
    EXPECT_EQ(stats["cache"]["misses"].asUint(), 3u);
    EXPECT_EQ(stats["cache"]["hits"].asUint(), 0u);
    EXPECT_GE(stats["store"]["num_pages"].asUint(), 2u);
}

// Every committed store and archived profile is addressed by these
// keys, so a field that leaves the cell context (or is hashed
// differently) invalidates them all. The constants were recorded
// while the learned backend, EMA and L2-prefetcher knobs were still
// live; their fields stay in the context as constants.
TEST_F(CellCacheTest, PltCellKeysArePinned)
{
    SweepSpec spec = makeNamedSweep("fig13", 1.0 / 20.0, true);  // smoke
    CellCache cache(*store_, "fp");
    std::map<RunMode, std::string> keys;
    for (const SweepCell &cell : expandSweep(spec))
        if (cell.workload == "ab-rand" && !keys.count(cell.mode))
            keys[cell.mode] = cache.cellKey(spec, cell, 0);
    EXPECT_EQ(keys[RunMode::Full], "6db7f1c28df68dac");
    EXPECT_EQ(keys[RunMode::Accelerated], "4367c993f9642813");
    EXPECT_EQ(keys[RunMode::SampledAccel], "391ade2c17db668a");
}

} // namespace
} // namespace osp
