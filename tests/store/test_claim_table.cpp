/** @file Tests for the claim codec and transaction helpers:
 *  canonical record round-trips, strict rejection of malformed
 *  records, and the key and owner-lock path layout. */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "store/claim_table.hh"
#include "store/page_store.hh"
#include "util/hash.hh"

namespace osp::store
{
namespace
{

class ClaimTableTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = (std::filesystem::temp_directory_path() /
                 ("osp_claim_test_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name()) +
                  ".db"))
                    .string();
        std::filesystem::remove(path_);
        std::filesystem::remove(path_ + ".lock");
        store_ = PageStore::open(path_);
    }

    void
    TearDown() override
    {
        store_.reset();
        std::filesystem::remove(path_);
        std::filesystem::remove(path_ + ".lock");
    }

    std::string path_;
    std::unique_ptr<PageStore> store_;
};

TEST(ClaimTableKeys, Layout)
{
    EXPECT_EQ(ClaimTable::claimKey("f00d", "abc123"),
              "claim/f00d/abc123");
    // 16-hex stableHash64 of the owner id, beside the store file.
    EXPECT_EQ(ClaimTable::ownerLockPath("runs/s.db", "w1"),
              "runs/s.db.owner.08cb8707b56d7b05");
    EXPECT_EQ(stableHash64("w1"), 0x08cb8707b56d7b05ULL);
    EXPECT_NE(ClaimTable::ownerLockPath("s.db", "w1"),
              ClaimTable::ownerLockPath("s.db", "w2"));
}

TEST(ClaimTableCodec, RoundTripsEveryStateExactly)
{
    for (ClaimState state :
         {ClaimState::Claimed, ClaimState::Retry, ClaimState::Done,
          ClaimState::Failed}) {
        ClaimRecord rec;
        rec.owner = "worker-1";
        rec.state = state;
        rec.retries = 2;
        if (state == ClaimState::Retry ||
            state == ClaimState::Failed)
            rec.error = "cell exploded: \"quoted\"";

        std::string encoded = ClaimTable::encode(rec);
        std::optional<ClaimRecord> decoded =
            ClaimTable::decode(encoded);
        ASSERT_TRUE(decoded.has_value())
            << claimStateName(state);
        EXPECT_EQ(decoded->owner, rec.owner);
        EXPECT_EQ(decoded->state, rec.state);
        EXPECT_EQ(decoded->retries, rec.retries);
        EXPECT_EQ(decoded->error, rec.error);
        // Canonical: encoding is a fixpoint.
        EXPECT_EQ(ClaimTable::encode(*decoded), encoded);
    }
}

TEST(ClaimTableCodec, ErrorOmittedWhenEmpty)
{
    ClaimRecord rec;
    rec.owner = "w";
    std::string encoded = ClaimTable::encode(rec);
    EXPECT_EQ(encoded.find("error"), std::string::npos) << encoded;
}

TEST(ClaimTableCodec, RejectsMalformedRecords)
{
    EXPECT_EQ(ClaimTable::decode(""), std::nullopt);
    EXPECT_EQ(ClaimTable::decode("not json"), std::nullopt);
    EXPECT_EQ(ClaimTable::decode("{}"), std::nullopt);
    EXPECT_EQ(ClaimTable::decode("[1,2]"), std::nullopt);
    // Unknown state name.
    EXPECT_EQ(ClaimTable::decode(
                  R"({"owner":"w","state":"zombie",)"
                  R"("retries":0})"),
              std::nullopt);
    // Wrong types.
    EXPECT_EQ(ClaimTable::decode(
                  R"({"owner":1,"state":"done",)"
                  R"("retries":0})"),
              std::nullopt);
    EXPECT_EQ(ClaimTable::decode(
                  R"({"owner":"w","state":"done","retries":"x"})"),
              std::nullopt);
    // Missing field.
    EXPECT_EQ(
        ClaimTable::decode(R"({"owner":"w","state":"done"})"),
        std::nullopt);
}

TEST(ClaimTableCodec, StateNamesRoundTrip)
{
    for (ClaimState state :
         {ClaimState::Claimed, ClaimState::Retry, ClaimState::Done,
          ClaimState::Failed})
        EXPECT_EQ(claimStateFromName(claimStateName(state)), state);
    EXPECT_EQ(claimStateFromName("bogus"), std::nullopt);
}

TEST_F(ClaimTableTest, RecordLifecycleThroughTheStore)
{
    ClaimTable table("fp");
    EXPECT_EQ(table.get(store_->beginRead(), "cell1"),
              std::nullopt);

    ClaimRecord rec;
    rec.owner = "w1";
    {
        WriteTx tx = store_->beginWrite();
        table.put(tx, "cell1", rec);
        tx.commit();
    }
    auto got = table.get(store_->beginRead(), "cell1");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->owner, "w1");
    EXPECT_EQ(got->state, ClaimState::Claimed);

    rec.state = ClaimState::Failed;
    rec.retries = 3;
    rec.error = "boom";
    {
        WriteTx tx = store_->beginWrite();
        table.put(tx, "cell1", rec);
        tx.commit();
    }
    got = table.get(store_->beginRead(), "cell1");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->state, ClaimState::Failed);
    EXPECT_EQ(got->retries, 3u);
    EXPECT_EQ(got->error, "boom");
}

} // namespace
} // namespace osp::store
