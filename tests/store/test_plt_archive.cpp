/** @file Tests for the PLT archive layer: save/load/list/remove
 *  semantics over the shared page store, keyspace hygiene against
 *  the cell cache, and the headline property — warm-starting a
 *  predictor from an archived profile is deterministic (two runs
 *  from the same profile encode to identical bytes). */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "driver/cell_io.hh"
#include "driver/experiments.hh"
#include "driver/sweep.hh"
#include "store/plt_archive.hh"

namespace osp
{
namespace
{

class PltArchiveTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = (std::filesystem::temp_directory_path() /
                 ("osp_plt_test_" +
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

/** The small sweep the driver tests use: 2 workloads x (Full +
 *  2 accelerated predictor variants) = 6 cells. */
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

TEST_F(PltArchiveTest, SaveLoadRoundTrip)
{
    store::PltArchive archive(*store_);
    EXPECT_EQ(archive.load("du"), std::nullopt);

    archive.save("du", "ospredict-profile v1\nfake body\n");
    EXPECT_EQ(archive.load("du"),
              "ospredict-profile v1\nfake body\n");

    // Replacement, not accumulation.
    archive.save("du", "ospredict-profile v1\nnewer\n");
    EXPECT_EQ(archive.load("du"),
              "ospredict-profile v1\nnewer\n");
}

TEST_F(PltArchiveTest, KeyLayout)
{
    EXPECT_EQ(store::PltArchive::key("du"), "plt/du");
}

TEST_F(PltArchiveTest, ArchivedProfileSurvivesReopen)
{
    {
        store::PltArchive archive(*store_);
        archive.save("du", "persisted profile");
    }
    store_.reset();  // release the writer gate before reopening
    store_ = store::PageStore::open(path_);
    store::PltArchive archive(*store_);
    EXPECT_EQ(archive.load("du"), "persisted profile");
}

TEST_F(PltArchiveTest, WarmStartFromArchivedProfileIsDeterministic)
{
    SweepSpec spec = tinySpec();
    auto cells = expandSweep(spec);
    const SweepCell *accel = nullptr;
    for (const SweepCell &c : cells) {
        if (c.mode == RunMode::Accelerated) {
            accel = &c;
            break;
        }
    }
    ASSERT_NE(accel, nullptr);

    // Cold run learns online and captures its profile...
    CellResult cold = runCell(spec, *accel);
    ASSERT_FALSE(cold.failed);
    ASSERT_FALSE(cold.pltProfile.empty());

    // ...which archives and reloads byte-exactly.
    store::PltArchive archive(*store_);
    archive.save(accel->workload, cold.pltProfile);
    std::optional<std::string> profile =
        archive.load(accel->workload);
    ASSERT_TRUE(profile.has_value());
    EXPECT_EQ(*profile, cold.pltProfile);

    // Warm-starting from the same archived profile is a pure
    // function: two runs encode to identical bytes (this is what
    // makes warm cells cacheable at all).
    CellResult warm1 = runCell(spec, *accel, 0, &*profile);
    CellResult warm2 = runCell(spec, *accel, 0, &*profile);
    ASSERT_FALSE(warm1.failed);
    EXPECT_EQ(encodeCellResult(warm1), encodeCellResult(warm2));
}

/** The accelerated cell of @p spec for @p workload. */
const SweepCell *
findAccel(const std::vector<SweepCell> &cells,
          const std::string &workload)
{
    for (const SweepCell &c : cells) {
        if (c.mode == RunMode::Accelerated &&
            c.workload == workload && c.predictorIndex == 0)
            return &c;
    }
    return nullptr;
}

// Satellite: the abl5 scenario — warm-starting from a *stale*
// profile (learned under a different workload's behaviour) must
// recover through audits and drift resets rather than fail, and
// must stay deterministic. The PLT is the only backend left; the
// test keeps its name.
TEST_F(PltArchiveTest, StaleProfileWarmStartRecoversPerBackend)
{
    SweepSpec spec = tinySpec();
    auto cells = expandSweep(spec);
    const SweepCell *donor = findAccel(cells, "du");
    const SweepCell *target = findAccel(cells, "ab-rand");
    ASSERT_NE(donor, nullptr);
    ASSERT_NE(target, nullptr);

    // The donor's profile describes du's services, not ab-rand's:
    // a stale table for the target cell.
    CellResult cold = runCell(spec, *donor);
    ASSERT_FALSE(cold.failed);
    ASSERT_FALSE(cold.pltProfile.empty());

    store::PltArchive archive(*store_);
    archive.save(target->workload, cold.pltProfile);
    std::optional<std::string> stale = archive.load(target->workload);
    ASSERT_TRUE(stale.has_value());

    CellResult warm1 = runCell(spec, *target, 0, &*stale);
    CellResult warm2 = runCell(spec, *target, 0, &*stale);
    ASSERT_FALSE(warm1.failed);
    EXPECT_GT(warm1.totals.totalCycles(), 0u);
    EXPECT_EQ(encodeCellResult(warm1), encodeCellResult(warm2));
}

} // namespace
} // namespace osp
