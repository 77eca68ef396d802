/** @file Tests for the three-level memory hierarchy. */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "mem/hierarchy.hh"
#include "util/random.hh"

namespace osp
{

/** Reads the TLBs, which no shipped code inspects. */
struct MemoryHierarchyTestPeer
{
    static const Cache &
    itlb(const MemoryHierarchy &h)
    {
        return h.itlb_;
    }

    static const Cache &
    dtlb(const MemoryHierarchy &h)
    {
        return h.dtlb_;
    }
};

namespace
{

HierarchyParams
tinyParams()
{
    HierarchyParams p;
    p.l1i = CacheParams{"l1i", 1024, 2, 64};
    p.l1d = CacheParams{"l1d", 1024, 2, 64};
    p.l2 = CacheParams{"l2", 8192, 4, 64};
    return p;
}

TEST(Hierarchy, HitLatencies)
{
    MemoryHierarchy h(tinyParams());
    // Cold: L1 miss, L2 miss -> memory.
    auto cold = h.access(0x1000, AccessType::Load, Owner::App, 0);
    EXPECT_TRUE(cold.l1Miss);
    EXPECT_TRUE(cold.l2Miss);
    EXPECT_GE(cold.latency, h.params().memLatency);

    // Warm: L1 hit at the configured L1D latency.
    auto warm = h.access(0x1000, AccessType::Load, Owner::App, 100);
    EXPECT_FALSE(warm.l1Miss);
    EXPECT_EQ(warm.latency, h.params().l1dHitLatency);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    MemoryHierarchy h(tinyParams());
    // Fill L1D (1KB = 16 lines over 8 sets x 2 ways) well past
    // capacity; early lines fall out of L1 but stay in L2 (8KB).
    for (Addr a = 0; a < 4096; a += 64)
        h.access(a, AccessType::Load, Owner::App, 0);
    auto res = h.access(0, AccessType::Load, Owner::App, 10000);
    EXPECT_TRUE(res.l1Miss);
    EXPECT_FALSE(res.l2Miss);
    EXPECT_EQ(res.latency,
              h.params().l1dHitLatency + h.params().l2HitLatency);
}

TEST(Hierarchy, InstFetchUsesL1I)
{
    MemoryHierarchy h(tinyParams());
    h.access(0x2000, AccessType::InstFetch, Owner::App, 0);
    EXPECT_EQ(h.l1i().stats().totalAccesses(), 1u);
    EXPECT_EQ(h.l1d().stats().totalAccesses(), 0u);
    auto hit = h.access(0x2000, AccessType::InstFetch, Owner::App, 1);
    EXPECT_FALSE(hit.l1Miss);
    EXPECT_EQ(hit.latency, h.params().l1iHitLatency);
}

TEST(Hierarchy, L2IsUnified)
{
    MemoryHierarchy h(tinyParams());
    h.access(0x3000, AccessType::InstFetch, Owner::App, 0);
    // A data access to the same line: L1D miss but L2 hit.
    auto res = h.access(0x3000, AccessType::Load, Owner::App, 10);
    EXPECT_TRUE(res.l1Miss);
    EXPECT_FALSE(res.l2Miss);
}

TEST(Hierarchy, BusQueueingDelaysBackToBackMisses)
{
    MemoryHierarchy h(tinyParams());
    auto first = h.access(0x10000, AccessType::Load, Owner::App, 0);
    auto second = h.access(0x20000, AccessType::Load, Owner::App, 0);
    // The second miss queues behind the first line transfer.
    EXPECT_GT(second.latency, first.latency);
    EXPECT_GE(second.latency,
              first.latency + h.params().busCyclesPerLine -
                  (h.params().l1dHitLatency +
                   h.params().l2HitLatency));
}

TEST(Hierarchy, BusClearsWithTime)
{
    MemoryHierarchy h(tinyParams());
    auto first = h.access(0x10000, AccessType::Load, Owner::App, 0);
    // Far in the future: no queueing.
    auto later =
        h.access(0x20000, AccessType::Load, Owner::App, 1000000);
    EXPECT_EQ(later.latency, first.latency);
}

TEST(Hierarchy, CountsSnapshotDelta)
{
    MemoryHierarchy h(tinyParams());
    h.access(0x0, AccessType::Load, Owner::App, 0);
    HierarchyCounts before = h.counts();
    h.access(0x40, AccessType::Load, Owner::Os, 0);
    h.access(0x40, AccessType::Load, Owner::Os, 0);
    HierarchyCounts delta = h.counts() - before;
    EXPECT_EQ(delta.l1dAccesses, 2u);
    EXPECT_EQ(delta.l1dMisses, 1u);
    EXPECT_EQ(delta.l2Accesses, 1u);
}

TEST(Hierarchy, PerOwnerCounts)
{
    MemoryHierarchy h(tinyParams());
    h.access(0x0, AccessType::Load, Owner::App, 0);
    h.access(0x1000, AccessType::Load, Owner::Os, 0);
    const CacheStats &l1d = h.l1d().stats();
    const auto app = static_cast<int>(Owner::App);
    const auto os = static_cast<int>(Owner::Os);
    EXPECT_EQ(l1d.accesses[app], 1u);
    EXPECT_EQ(l1d.accesses[os], 1u);
    EXPECT_EQ(l1d.misses[app], 1u);
    EXPECT_EQ(h.counts().l1dAccesses, 2u);
}

TEST(Hierarchy, ProbeL1MatchesResidency)
{
    MemoryHierarchy h(tinyParams());
    EXPECT_FALSE(h.l1d().probe(0x5000));
    h.access(0x5000, AccessType::Load, Owner::App, 0);
    EXPECT_TRUE(h.l1d().probe(0x5000));
    EXPECT_FALSE(h.l1i().probe(0x5000));
}

TEST(Hierarchy, InstallLineResidency)
{
    MemoryHierarchy h(tinyParams());
    const Addr line[] = {0x7000};
    auto out = h.installFootprint(line, 1, false, Owner::Os);
    EXPECT_EQ(out.l1Fills, 1u);
    EXPECT_EQ(out.l2Fills, 1u);
    // Installs do not perturb demand statistics.
    EXPECT_EQ(h.counts().l1dAccesses, 0u);
    // But the line is resident: a demand access hits.
    auto res = h.access(0x7000, AccessType::Load, Owner::App, 0);
    EXPECT_FALSE(res.l1Miss);
}

void
expectSameStats(const CacheStats &got, const CacheStats &want,
                const char *level)
{
    for (int o = 0; o < numOwners; ++o) {
        EXPECT_EQ(got.accesses[o], want.accesses[o]) << level;
        EXPECT_EQ(got.misses[o], want.misses[o]) << level;
    }
    EXPECT_EQ(got.evictions, want.evictions) << level;
    EXPECT_EQ(got.writebacks, want.writebacks) << level;
    EXPECT_EQ(got.crossEvictions, want.crossEvictions) << level;
    EXPECT_EQ(got.injectedEvictions, want.injectedEvictions) << level;
    EXPECT_EQ(got.injectedFills, want.injectedFills) << level;
}

void
expectSameHierarchy(const MemoryHierarchy &got,
                    const MemoryHierarchy &want)
{
    expectSameStats(got.l1i().stats(), want.l1i().stats(), "l1i");
    expectSameStats(got.l1d().stats(), want.l1d().stats(), "l1d");
    expectSameStats(got.l2().stats(), want.l2().stats(), "l2");
    expectSameStats(MemoryHierarchyTestPeer::itlb(got).stats(),
                    MemoryHierarchyTestPeer::itlb(want).stats(), "itlb");
    expectSameStats(MemoryHierarchyTestPeer::dtlb(got).stats(),
                    MemoryHierarchyTestPeer::dtlb(want).stats(), "dtlb");
    EXPECT_EQ(got.l2().residentLines(Owner::Os),
              want.l2().residentLines(Owner::Os));
}

/** installFootprint() takes each level in turn; installing the same
 *  cycled sample line by line through all three levels must leave
 *  caches, TLBs and statistics in exactly the same state — including
 *  samples shorter than the count and an empty sample. The follow-up
 *  demand stream checks the replacement state the counters cannot
 *  show. */
TEST(Hierarchy, FootprintInstallMatchesPerLineLoop)
{
    HierarchyParams p = tinyParams();
    p.tlbEntries = 8;
    p.tlbAssoc = 2;
    MemoryHierarchy batched(p);
    MemoryHierarchy per_line(p);

    Pcg32 rng(17);
    auto demand = [&](int n) {
        for (int i = 0; i < n; ++i) {
            Addr a = 64ULL * rng.range(1024);
            auto type = static_cast<AccessType>(rng.range(3));
            auto x = batched.access(a, type, Owner::App, 0);
            auto y = per_line.access(a, type, Owner::App, 0);
            ASSERT_EQ(x.latency, y.latency) << i;
            ASSERT_EQ(x.tlbMiss, y.tlbMiss) << i;
        }
    };
    demand(3000);

    std::vector<Addr> data, code;
    for (int i = 0; i < 200; ++i)
        data.push_back(64ULL * rng.range(4096));
    for (int i = 0; i < 37; ++i)
        code.push_back(0x400000 + 64ULL * rng.range(512));
    const std::vector<Addr> empty;
    struct Step
    {
        const std::vector<Addr> *sample;
        std::uint64_t count;
        bool is_code;
    };
    for (Step step : {Step{&data, 150, false},
                      Step{&code, 100, true},   // cycles 2.7x
                      Step{&data, 450, false},  // cycles 2.25x
                      Step{&empty, 40, false},
                      Step{&code, 0, true}}) {
        const std::vector<Addr> &sample = *step.sample;
        auto out = batched.installFootprint(
            sample, step.count, step.is_code, Owner::Os);
        MemoryHierarchy::InstallOutcome want;
        for (std::uint64_t k = 0;
             k < step.count && !sample.empty(); ++k) {
            std::span<const Addr> one(&sample[k % sample.size()],
                                      1);
            auto o = per_line.installFootprint(one, 1,
                                               step.is_code,
                                               Owner::Os);
            want.l1Fills += o.l1Fills;
            want.l2Fills += o.l2Fills;
        }
        EXPECT_EQ(out.l1Fills, want.l1Fills);
        EXPECT_EQ(out.l2Fills, want.l2Fills);
        expectSameHierarchy(batched, per_line);
        demand(500);
    }
    expectSameHierarchy(batched, per_line);
}

TEST(Hierarchy, DefaultParamsMatchPaper)
{
    HierarchyParams p;
    EXPECT_EQ(p.l1i.sizeBytes, 16u * 1024);
    EXPECT_EQ(p.l1i.assoc, 2u);
    EXPECT_EQ(p.l1d.sizeBytes, 16u * 1024);
    EXPECT_EQ(p.l1d.assoc, 4u);
    EXPECT_EQ(p.l2.sizeBytes, 1024u * 1024);
    EXPECT_EQ(p.l2.assoc, 8u);
    EXPECT_EQ(p.l1d.lineBytes, 64u);
    EXPECT_EQ(p.l1dHitLatency, 2u);
    EXPECT_EQ(p.l2HitLatency, 8u);
    EXPECT_EQ(p.memLatency, 300u);
}

TEST(HierarchyTlb, MissPaysWalkPenaltyOncePerPage)
{
    HierarchyParams p = tinyParams();
    p.tlbEntries = 8;
    p.tlbMissPenalty = 30;
    MemoryHierarchy h(p);
    auto first = h.access(0x8000, AccessType::Load, Owner::App, 0);
    EXPECT_TRUE(first.tlbMiss);
    // Same page, different line: TLB hit now.
    auto second =
        h.access(0x8040, AccessType::Load, Owner::App, 10000);
    EXPECT_FALSE(second.tlbMiss);
    EXPECT_EQ(first.latency - second.latency,
              p.tlbMissPenalty);
}

TEST(HierarchyTlb, SeparateInstructionAndDataTlbs)
{
    HierarchyParams p = tinyParams();
    p.tlbEntries = 8;
    MemoryHierarchy h(p);
    EXPECT_TRUE(h.access(0x8000, AccessType::Load, Owner::App, 0)
                    .tlbMiss);
    // Fetching from the same page still misses the I-TLB.
    auto fetch =
        h.access(0x8000, AccessType::InstFetch, Owner::App, 0);
    EXPECT_TRUE(fetch.tlbMiss);
    // Each TLB now holds the page.
    EXPECT_FALSE(h.access(0x8040, AccessType::Store, Owner::App, 0)
                     .tlbMiss);
    EXPECT_FALSE(h.access(0x8040, AccessType::InstFetch, Owner::App, 0)
                     .tlbMiss);
}

TEST(HierarchyTlb, CapacityEviction)
{
    HierarchyParams p = tinyParams();
    p.tlbEntries = 4;
    p.tlbAssoc = 4;  // one set
    MemoryHierarchy h(p);
    for (Addr page = 0; page < 5; ++page)
        h.access(page * 4096, AccessType::Load, Owner::App, 0);
    // Page 0 was evicted by page 4.
    auto res = h.access(0, AccessType::Load, Owner::App, 0);
    EXPECT_TRUE(res.tlbMiss);
}

TEST(HierarchyTlb, ZeroEntriesDies)
{
    HierarchyParams p = tinyParams();
    p.tlbEntries = 0;
    EXPECT_DEATH(MemoryHierarchy h(p), "itlb: size must be a positive");
}

TEST(HierarchyTlb, FootprintInstallWarmsTlb)
{
    HierarchyParams p = tinyParams();
    p.tlbEntries = 8;
    MemoryHierarchy h(p);
    const Addr line[] = {0x9000};
    h.installFootprint(line, 1, false, Owner::Os);
    auto res = h.access(0x9000, AccessType::Load, Owner::App, 0);
    EXPECT_FALSE(res.tlbMiss);
}

/** accessL1() + accessBeyondL1() is access() split at the L1: two
 *  hierarchies driven by one random stream at the same `now`, one
 *  each way, must agree on every outcome and counter — with TLB
 *  misses and dirty writebacks in play — and on a follow-up miss
 *  burst whose latencies expose the bus clock. */
TEST(Hierarchy, SplitAccessMatchesAccess)
{
    HierarchyParams p = tinyParams();
    p.tlbEntries = 8;
    p.tlbAssoc = 2;
    MemoryHierarchy whole(p);
    MemoryHierarchy split(p);

    Pcg32 rng(29, 0);
    Cycles now = 0;
    std::uint64_t tlb_misses = 0;
    for (int i = 0; i < 20000; ++i) {
        Addr a = 64ULL * rng.range(4096) + rng.range(64);
        auto type = static_cast<AccessType>(rng.range(3));
        Owner o = rng.range(4) ? Owner::App : Owner::Os;
        now += rng.range(60);
        auto x = whole.access(a, type, o, now);
        auto y = split.accessL1(a, type, o);
        if (y.l1Miss)
            y = split.accessBeyondL1(a, type == AccessType::Store, o,
                                     now, y);
        ASSERT_EQ(x.latency, y.latency) << i;
        ASSERT_EQ(x.l1Miss, y.l1Miss) << i;
        ASSERT_EQ(x.l2Miss, y.l2Miss) << i;
        ASSERT_EQ(x.tlbMiss, y.tlbMiss) << i;
        tlb_misses += x.tlbMiss;
    }
    expectSameHierarchy(split, whole);
    EXPECT_GT(tlb_misses, 0u);
    EXPECT_GT(whole.l2().stats().writebacks, 0u);

    // Back-to-back cold misses at one cycle queue behind whatever
    // bus occupancy each hierarchy has left.
    for (int i = 0; i < 64; ++i) {
        Addr a = 0x1000000 + 64ULL * i;
        ASSERT_EQ(
            whole.access(a, AccessType::Load, Owner::App, now).latency,
            split.access(a, AccessType::Load, Owner::App, now).latency)
            << i;
    }
}

} // namespace
} // namespace osp
