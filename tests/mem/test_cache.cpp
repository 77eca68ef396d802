/** @file Unit and property tests for the set-associative cache. */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

#include "mem/cache.hh"
#include "util/random.hh"

namespace osp
{
namespace
{

CacheParams
smallCache(std::uint64_t size = 1024, std::uint32_t assoc = 2)
{
    CacheParams p;
    p.name = "test";
    p.sizeBytes = size;
    p.assoc = assoc;
    p.lineBytes = 64;
    return p;
}

TEST(Cache, GeometryDerivation)
{
    Cache c(smallCache(16 * 1024, 2));
    EXPECT_EQ(c.numSets(), 128u);
    EXPECT_EQ(c.assoc(), 2u);
    EXPECT_EQ(c.lineBytes(), 64u);
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache());
    auto first = c.access(0x100, false, Owner::App);
    EXPECT_FALSE(first.hit);
    auto second = c.access(0x100, false, Owner::App);
    EXPECT_TRUE(second.hit);
    // Same line, different byte.
    EXPECT_TRUE(c.access(0x13F, false, Owner::App).hit);
    // Next line misses.
    EXPECT_FALSE(c.access(0x140, false, Owner::App).hit);
}

TEST(Cache, LruEvictionOrder)
{
    // 1KB, 2-way, 64B lines -> 8 sets. Set 0 holds lines with
    // address bits [8:6] == 0: 0x000, 0x200, 0x400...
    Cache c(smallCache());
    c.access(0x000, false, Owner::App);
    c.access(0x200, false, Owner::App);
    // Touch 0x000 so 0x200 is LRU.
    c.access(0x000, false, Owner::App);
    // Fill a third line in the set; it must evict 0x200.
    c.access(0x400, false, Owner::App);
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_FALSE(c.probe(0x200));
    EXPECT_TRUE(c.probe(0x400));
}

TEST(Cache, WritebackOnDirtyEviction)
{
    Cache c(smallCache());
    c.access(0x000, true, Owner::App);   // dirty
    c.access(0x200, false, Owner::App);  // clean
    auto res = c.access(0x400, false, Owner::App);  // evicts 0x000
    EXPECT_TRUE(res.writeback);
    EXPECT_EQ(c.stats().writebacks, 1u);
    // Evicting the clean line must not write back.
    auto res2 = c.access(0x600, false, Owner::App);  // evicts 0x200
    EXPECT_FALSE(res2.writeback);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, PerOwnerStats)
{
    Cache c(smallCache());
    c.access(0x000, false, Owner::App);
    c.access(0x000, false, Owner::App);
    c.access(0x040, false, Owner::Os);
    const auto &s = c.stats();
    EXPECT_EQ(s.accesses[static_cast<int>(Owner::App)], 2u);
    EXPECT_EQ(s.misses[static_cast<int>(Owner::App)], 1u);
    EXPECT_EQ(s.accesses[static_cast<int>(Owner::Os)], 1u);
    EXPECT_EQ(s.misses[static_cast<int>(Owner::Os)], 1u);
    EXPECT_DOUBLE_EQ(s.missRateFor(Owner::App), 0.5);
}

TEST(Cache, CrossEvictionDetected)
{
    Cache c(smallCache());
    c.access(0x000, false, Owner::App);
    c.access(0x200, false, Owner::App);
    auto res = c.access(0x400, false, Owner::Os);
    EXPECT_TRUE(res.crossEviction);
    EXPECT_EQ(c.stats().crossEvictions, 1u);
}

TEST(Cache, FlushInvalidatesKeepsStats)
{
    Cache c(smallCache());
    c.access(0x000, false, Owner::App);
    c.flush();
    EXPECT_FALSE(c.probe(0x000));
    EXPECT_EQ(c.stats().totalMisses(), 1u);
    EXPECT_FALSE(c.access(0x000, false, Owner::App).hit);
}

TEST(Cache, ResidentLinesPerOwner)
{
    Cache c(smallCache());
    c.access(0x000, false, Owner::App);
    c.access(0x040, false, Owner::Os);
    c.access(0x080, false, Owner::Os);
    EXPECT_EQ(c.residentLines(Owner::App), 1u);
    EXPECT_EQ(c.residentLines(Owner::Os), 2u);
}

TEST(Cache, OwnershipFollowsLastFiller)
{
    Cache c(smallCache());
    c.access(0x000, false, Owner::App);
    // A hit by the OS does not change ownership (fill ownership).
    c.access(0x000, false, Owner::Os);
    EXPECT_EQ(c.residentLines(Owner::App), 1u);
}

TEST(Cache, BadGeometryDies)
{
    CacheParams p = smallCache();
    p.sizeBytes = 1000;  // not a multiple of line*assoc
    EXPECT_DEATH(Cache c(p), "size");
    CacheParams q = smallCache();
    q.lineBytes = 48;
    EXPECT_DEATH(Cache c(q), "power of two");
    CacheParams r = smallCache();
    r.assoc = 0;
    EXPECT_DEATH(Cache c(r), "associativity");
}

TEST(Cache, PollutionInvalidateAppPrefersAppLru)
{
    Cache c(smallCache(128, 2));  // 1 set, 2 ways
    c.access(0x000, false, Owner::App);
    c.access(0x040, false, Owner::App);
    // Full set, both app lines; 0x000 is LRU.
    std::uint64_t n =
        c.pollute(1, Cache::PollutionMode::InvalidateApp);
    EXPECT_EQ(n, 1u);
    EXPECT_FALSE(c.probe(0x000));
    EXPECT_TRUE(c.probe(0x040));
}

TEST(Cache, PollutionInvalidateAppSkipsOsOnlySets)
{
    Cache c(smallCache(128, 2));
    c.access(0x000, false, Owner::Os);
    c.access(0x040, false, Owner::Os);
    EXPECT_EQ(c.pollute(8, Cache::PollutionMode::InvalidateApp), 0u);
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_TRUE(c.probe(0x040));
}

TEST(Cache, PollutionInvalidateAppNoOpOnInvalidSlot)
{
    // Sec. 4.5: a set with an invalid line yields no victim.
    Cache c(smallCache(128, 2));
    c.access(0x000, false, Owner::App);  // one way still invalid
    EXPECT_EQ(c.pollute(8, Cache::PollutionMode::InvalidateApp), 0u);
    EXPECT_TRUE(c.probe(0x000));
}

TEST(Cache, PollutionInvalidateAnyTakesOsVictims)
{
    Cache c(smallCache(128, 2));
    c.access(0x000, false, Owner::Os);
    c.access(0x040, false, Owner::Os);
    EXPECT_EQ(c.pollute(1, Cache::PollutionMode::InvalidateAny), 1u);
    EXPECT_EQ(c.residentLines(Owner::Os), 1u);
}

TEST(Cache, PollutionInstallKeepsSetsFull)
{
    Cache c(smallCache(128, 2));
    c.access(0x000, false, Owner::App);
    c.access(0x040, false, Owner::App);
    std::uint64_t n = c.pollute(4, Cache::PollutionMode::Install);
    EXPECT_EQ(n, 4u);
    // Set still has 2 valid lines, now synthetic OS lines.
    EXPECT_EQ(c.residentLines(Owner::App) +
                  c.residentLines(Owner::Os),
              2u);
    EXPECT_EQ(c.stats().injectedEvictions, 4u);
}

TEST(Cache, PollutionInstallFillsInvalidSlots)
{
    Cache c(smallCache(128, 2));
    EXPECT_EQ(c.pollute(2, Cache::PollutionMode::Install), 2u);
    EXPECT_EQ(c.residentLines(Owner::Os), 2u);
    // Regression: filling an empty slot is not an eviction — it
    // used to be reported as one.
    EXPECT_EQ(c.stats().injectedEvictions, 0u);
    EXPECT_EQ(c.stats().injectedFills, 2u);
}

TEST(Cache, PollutionInvalidateClampsToLiveLines)
{
    // Regression: an invalidation request larger than the resident
    // population used to keep drawing (and burning RNG state) on
    // guaranteed no-op draws. Now the count clamps up front and the
    // return value reports what actually happened.
    Cache c(smallCache(1024, 2));  // 8 sets, 16 lines
    c.access(0x000, false, Owner::App);
    c.access(0x040, false, Owner::App);
    c.access(0x080, false, Owner::Os);

    std::uint64_t n =
        c.pollute(1000, Cache::PollutionMode::InvalidateAny);
    // At most the 3 resident lines can go; no over-reporting.
    EXPECT_LE(n, 3u);
    EXPECT_EQ(c.stats().injectedEvictions, n);
    EXPECT_EQ(c.residentLines(Owner::App) +
                  c.residentLines(Owner::Os),
              3u - n);
}

TEST(Cache, PollutionInvalidateAppClampsToAppLines)
{
    Cache c(smallCache(1024, 2));
    c.access(0x000, false, Owner::App);
    for (int i = 0; i < 8; ++i)
        c.access(0x040ULL + 0x40 * i, false, Owner::Os);

    std::uint64_t n =
        c.pollute(500, Cache::PollutionMode::InvalidateApp);
    // Only the single app line is eligible.
    EXPECT_LE(n, 1u);
    EXPECT_EQ(c.residentLines(Owner::Os), 8u);
    EXPECT_EQ(c.residentLines(Owner::App), 1u - n);
}

TEST(Cache, PollutionOnEmptyCacheIsNoOpForInvalidation)
{
    Cache c(smallCache(1024, 2));
    EXPECT_EQ(c.pollute(64, Cache::PollutionMode::InvalidateAny),
              0u);
    EXPECT_EQ(c.pollute(64, Cache::PollutionMode::InvalidateApp),
              0u);
    EXPECT_EQ(c.stats().injectedEvictions, 0u);
}

TEST(Cache, ResidentLineCountsTrackStateChanges)
{
    Cache c(smallCache(128, 2));
    EXPECT_EQ(c.residentLines(), 0u);
    c.access(0x000, false, Owner::App);
    c.access(0x040, false, Owner::Os);
    EXPECT_EQ(c.residentLines(Owner::App), 1u);
    EXPECT_EQ(c.residentLines(Owner::Os), 1u);
    EXPECT_EQ(c.residentLines(), 2u);
    // Demand eviction of the app LRU line by an OS miss.
    c.access(0x080, false, Owner::Os);
    EXPECT_EQ(c.residentLines(Owner::App), 0u);
    EXPECT_EQ(c.residentLines(Owner::Os), 2u);
    c.flush();
    EXPECT_EQ(c.residentLines(), 0u);
}

TEST(Cache, InstallCountsFillsNotEvictionsOnInvalidSlots)
{
    Cache c(smallCache(128, 2));
    EXPECT_TRUE(c.install(0x000, Owner::Os));
    EXPECT_EQ(c.stats().injectedFills, 1u);
    EXPECT_EQ(c.stats().injectedEvictions, 0u);
    // Displacing a valid line is an eviction.
    c.install(0x040, Owner::Os);
    c.install(0x080, Owner::Os);
    EXPECT_EQ(c.stats().injectedFills, 3u);
    EXPECT_EQ(c.stats().injectedEvictions, 1u);
}

TEST(Cache, InstallResidencyAndRefresh)
{
    Cache c(smallCache(128, 2));
    EXPECT_TRUE(c.install(0x000, Owner::Os));   // fill
    EXPECT_FALSE(c.install(0x000, Owner::Os));  // refresh
    EXPECT_TRUE(c.probe(0x000));
    // Install never counts demand accesses.
    EXPECT_EQ(c.stats().totalAccesses(), 0u);
}

TEST(Cache, InstallRefreshesLruOrder)
{
    Cache c(smallCache(128, 2));
    c.access(0x000, false, Owner::App);
    c.access(0x040, false, Owner::App);
    c.install(0x000, Owner::Os);  // refresh: now 0x040 is LRU
    c.access(0x080, false, Owner::App);
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_FALSE(c.probe(0x040));
}

/** LRU stack property: with identical sets, a larger associativity
 *  never misses more on the same trace. */
class LruStackProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(LruStackProperty, MoreWaysNeverMoreMisses)
{
    int seed = GetParam();
    Pcg32 rng(seed);
    std::vector<Addr> trace;
    for (int i = 0; i < 4000; ++i)
        trace.push_back(64ULL * rng.range(256));

    std::uint64_t prev_misses = ~0ULL;
    for (std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
        // Fix the set count (16) while growing ways.
        CacheParams p = smallCache(
            static_cast<std::uint64_t>(16) * 64 * assoc, assoc);
        Cache c(p);
        for (Addr a : trace)
            c.access(a, false, Owner::App);
        EXPECT_LE(c.stats().totalMisses(), prev_misses);
        prev_misses = c.stats().totalMisses();
    }
}

INSTANTIATE_TEST_SUITE_P(Traces, LruStackProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/** Bigger caches (more sets) never miss more on a random trace
 *  than a same-associativity smaller cache? Not a theorem for
 *  set-indexed caches in general, but holds for uniform random
 *  traces; we assert it statistically with margin. */
TEST(Cache, LargerCacheFewerMissesOnRandomTrace)
{
    Pcg32 rng(77);
    std::vector<Addr> trace;
    for (int i = 0; i < 20000; ++i)
        trace.push_back(64ULL * rng.range(2048));
    std::uint64_t small_misses = 0;
    std::uint64_t large_misses = 0;
    {
        Cache c(smallCache(16 * 1024, 4));
        for (Addr a : trace)
            c.access(a, false, Owner::App);
        small_misses = c.stats().totalMisses();
    }
    {
        Cache c(smallCache(64 * 1024, 4));
        for (Addr a : trace)
            c.access(a, false, Owner::App);
        large_misses = c.stats().totalMisses();
    }
    EXPECT_LT(large_misses, small_misses);
}

/** flush() must rewind the LRU clock, the MRU memos and the
 *  synthetic-tag allocator: a flushed cache replays a subsequent
 *  access script exactly like a freshly constructed one. (The
 *  script avoids pollute(): the replacement RNG deliberately
 *  survives flush, so RNG-consuming ops would diverge by design.) */
TEST(Cache, FlushResetsReplacementStateDeterministically)
{
    auto script = [](Cache &c) {
        std::vector<bool> hits;
        Pcg32 rng(99);
        for (int i = 0; i < 3000; ++i) {
            Addr a = 64ULL * rng.range(96);
            hits.push_back(c.access(a, i % 3 == 0, Owner::App).hit);
            if (i % 7 == 0)
                c.install(64ULL * rng.range(96), Owner::Os);
        }
        return hits;
    };

    Cache fresh(smallCache(4 * 1024, 4));
    auto want = script(fresh);

    Cache used(smallCache(4 * 1024, 4));
    // Heavy non-RNG use: advance the LRU clock and MRU memos far
    // from their initial values before flushing.
    for (int i = 0; i < 5000; ++i)
        used.access(64ULL * (i % 256), i % 2 == 0, Owner::Os);
    used.flush();
    EXPECT_EQ(used.residentLines(), 0u);

    auto got = script(used);
    EXPECT_EQ(got, want);
    EXPECT_EQ(used.residentLines(), fresh.residentLines());
    EXPECT_EQ(used.residentLines(Owner::App),
              fresh.residentLines(Owner::App));
}

/** InvalidateAny on a completely full cache: every draw lands on a
 *  full set, so each invalidates exactly one victim. */
TEST(Cache, PollutionInvalidateAnyOnFullCache)
{
    Cache c(smallCache(8 * 1024, 4));  // 32 sets x 4 ways
    const std::uint64_t cap = 128;
    for (std::uint64_t i = 0; i < cap; ++i)
        c.access(64 * i, false, Owner::App);
    ASSERT_EQ(c.residentLines(), cap);

    std::uint64_t n = c.pollute(1 << 20,
                                Cache::PollutionMode::InvalidateAny);
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, cap);
    EXPECT_EQ(c.residentLines(), cap - n);
    EXPECT_EQ(c.stats().injectedEvictions, n);
}

/** InvalidateApp with zero app-owned lines resident clamps to zero
 *  before any RNG draw: a free no-op regardless of request size. */
TEST(Cache, PollutionInvalidateAppZeroAppLinesIsFreeNoOp)
{
    Cache c(smallCache(4 * 1024, 4));
    for (std::uint64_t i = 0; i < 16; ++i)
        c.access(64 * i, false, Owner::Os);
    ASSERT_EQ(c.residentLines(Owner::Os), 16u);

    std::uint64_t n = c.pollute(1ULL << 40,
                                Cache::PollutionMode::InvalidateApp);
    EXPECT_EQ(n, 0u);
    EXPECT_EQ(c.residentLines(Owner::Os), 16u);
    EXPECT_EQ(c.stats().injectedEvictions, 0u);
}

/** Synthetic Install lines must never hit for realistic addresses,
 *  under the compact tag layout included. */
TEST(Cache, PollutionInstallSyntheticLinesNeverHit)
{
    CacheParams p = smallCache(2 * 64, 2);  // one set, two ways
    Cache c(p);
    ASSERT_EQ(c.numSets(), 1u);
    std::uint64_t n =
        c.pollute(2, Cache::PollutionMode::Install);
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(c.residentLines(Owner::Os), 2u);

    // Any address below the synthetic-tag range (addr >> 6 < 2^52)
    // must miss against both synthetic lines.
    for (Addr a : {Addr(0), Addr(0x1000), Addr(0xdeadbe00),
                   (Addr(1) << 48) + 64}) {
        EXPECT_FALSE(c.probe(a)) << "addr " << a;
    }
    EXPECT_FALSE(c.access(0x2000, false, Owner::App).hit);
}

/**
 * The replacement logic written the plain way — separate scans for
 * the hit, the first invalid way and the LRU victim, branchy
 * compares — with the same RNG stream as Cache. The one-scan Cache
 * must agree with it op for op.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheParams &p,
                            std::uint64_t seed = 12345)
        : p_(p), rng_(seed, 0x9e3779b97f4a7c15ULL)
    {
        sets_ = static_cast<std::uint32_t>(
            p.sizeBytes / (std::uint64_t(p.lineBytes) * p.assoc));
        while ((1u << shift_) < p.lineBytes)
            ++shift_;
        ways_.resize(std::size_t(sets_) * p.assoc);
    }

    Cache::AccessResult
    access(Addr addr, bool is_write, Owner owner)
    {
        stats.accesses[static_cast<int>(owner)] += 1;
        ++clock_;
        Cache::AccessResult r;
        Way *set = setOf(addr);
        for (std::uint32_t w = 0; w < p_.assoc; ++w) {
            if (set[w].valid && set[w].tag == tagOf(addr)) {
                set[w].stamp = clock_;
                set[w].dirty |= is_write;
                r.hit = true;
                return r;
            }
        }
        stats.misses[static_cast<int>(owner)] += 1;
        Way &v = set[victim(set)];
        if (v.valid) {
            stats.evictions += 1;
            if (v.dirty) {
                stats.writebacks += 1;
                r.writeback = true;
            }
            if (v.owner == Owner::App && owner == Owner::Os) {
                stats.crossEvictions += 1;
                r.crossEviction = true;
            }
        }
        v = Way{true, is_write, owner, tagOf(addr), clock_};
        return r;
    }

    bool
    install(Addr addr, Owner owner)
    {
        ++clock_;
        Way *set = setOf(addr);
        for (std::uint32_t w = 0; w < p_.assoc; ++w) {
            if (set[w].valid && set[w].tag == tagOf(addr)) {
                set[w].stamp = clock_;
                return false;
            }
        }
        Way &v = set[victim(set)];
        if (v.valid)
            stats.injectedEvictions += 1;
        stats.injectedFills += 1;
        v = Way{true, false, owner, tagOf(addr), clock_};
        return true;
    }

    std::uint64_t
    pollute(std::uint64_t count, Cache::PollutionMode mode)
    {
        std::uint64_t app = 0, all = 0;
        for (const Way &w : ways_) {
            all += w.valid;
            app += w.valid && w.owner == Owner::App;
        }
        if (mode == Cache::PollutionMode::InvalidateApp)
            count = std::min(count, app);
        else if (mode == Cache::PollutionMode::InvalidateAny)
            count = std::min(count, all);
        std::uint64_t affected = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            Way *set = &ways_[std::size_t(rng_.range(sets_)) *
                              p_.assoc];
            int v = -1;
            for (std::uint32_t w = 0; w < p_.assoc && v < 0; ++w)
                if (!set[w].valid)
                    v = static_cast<int>(w);
            if (v >= 0 && mode != Cache::PollutionMode::Install)
                continue;
            if (v < 0) {
                for (std::uint32_t w = 0; w < p_.assoc; ++w) {
                    if (mode == Cache::PollutionMode::InvalidateApp &&
                        set[w].owner != Owner::App)
                        continue;
                    if (v < 0 || set[w].stamp < set[v].stamp)
                        v = static_cast<int>(w);
                }
                if (v < 0)
                    continue;
            }
            Way &line = set[v];
            if (line.valid)
                stats.injectedEvictions += 1;
            if (mode == Cache::PollutionMode::Install) {
                line = Way{true, false, Owner::Os,
                           (1ULL << 52) + synthetic_++, ++clock_};
                stats.injectedFills += 1;
            } else {
                line.valid = false;
                line.dirty = false;
            }
            ++affected;
        }
        return affected;
    }

    bool
    probe(Addr addr) const
    {
        const Way *set =
            &ways_[std::size_t((addr >> shift_) & (sets_ - 1)) *
                   p_.assoc];
        for (std::uint32_t w = 0; w < p_.assoc; ++w)
            if (set[w].valid && set[w].tag == tagOf(addr))
                return true;
        return false;
    }

    std::uint64_t
    resident(Owner owner) const
    {
        std::uint64_t n = 0;
        for (const Way &w : ways_)
            n += w.valid && w.owner == owner;
        return n;
    }

    CacheStats stats;

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        Owner owner = Owner::App;
        Addr tag = 0;
        std::uint64_t stamp = 0;
    };

    Addr tagOf(Addr addr) const { return addr >> shift_; }

    Way *
    setOf(Addr addr)
    {
        return &ways_[std::size_t((addr >> shift_) & (sets_ - 1)) *
                      p_.assoc];
    }

    std::uint32_t
    victim(const Way *set)
    {
        for (std::uint32_t w = 0; w < p_.assoc; ++w)
            if (!set[w].valid)
                return w;
        std::uint32_t v = 0;
        for (std::uint32_t w = 1; w < p_.assoc; ++w)
            if (set[w].stamp < set[v].stamp)
                v = w;
        return v;
    }

    CacheParams p_;
    Pcg32 rng_;
    std::uint32_t sets_ = 0;
    std::uint32_t shift_ = 0;
    std::uint64_t clock_ = 0;
    std::uint64_t synthetic_ = 0;
    std::vector<Way> ways_;
};

void
expectSameStats(const CacheStats &got, const CacheStats &want)
{
    for (int o = 0; o < numOwners; ++o) {
        EXPECT_EQ(got.accesses[o], want.accesses[o]);
        EXPECT_EQ(got.misses[o], want.misses[o]);
    }
    EXPECT_EQ(got.evictions, want.evictions);
    EXPECT_EQ(got.writebacks, want.writebacks);
    EXPECT_EQ(got.crossEvictions, want.crossEvictions);
    EXPECT_EQ(got.injectedEvictions, want.injectedEvictions);
    EXPECT_EQ(got.injectedFills, want.injectedFills);
}

/** One-scan access/install/pollute against the reference model on
 *  random mixed streams at two associativities: every outcome, the
 *  statistics, the residency and the contents must agree
 *  throughout. */
TEST(Cache, OneScanMatchesReferenceModel)
{
    for (std::uint32_t assoc : {4u, 8u}) {
        CacheParams p = smallCache(4 * 1024, assoc);
        Cache c(p, 77);
        ReferenceCache ref(p, 77);
        const std::uint64_t span = 3 * 4 * 1024 / 64;
        Pcg32 rng(5, assoc);
        for (int i = 0; i < 20000; ++i) {
            Addr a = 64ULL * rng.range(span) + rng.range(64);
            Owner o = rng.range(3) ? Owner::App : Owner::Os;
            std::uint32_t op = rng.range(20);
            if (op < 14) {
                bool w = rng.range(4) == 0;
                auto got = c.access(a, w, o);
                auto want = ref.access(a, w, o);
                ASSERT_EQ(got.hit, want.hit) << i;
                ASSERT_EQ(got.writeback, want.writeback) << i;
                ASSERT_EQ(got.crossEviction, want.crossEviction)
                    << i;
            } else if (op < 18) {
                ASSERT_EQ(c.install(a, o), ref.install(a, o))
                    << i;
            } else {
                auto mode = static_cast<Cache::PollutionMode>(
                    rng.range(3));
                std::uint64_t n = rng.range(12);
                ASSERT_EQ(c.pollute(n, mode),
                          ref.pollute(n, mode))
                    << i;
            }
            if (i % 1000 == 999) {
                expectSameStats(c.stats(), ref.stats);
                EXPECT_EQ(c.residentLines(Owner::App),
                          ref.resident(Owner::App));
                EXPECT_EQ(c.residentLines(Owner::Os),
                          ref.resident(Owner::Os));
                for (std::uint64_t l = 0; l < span; ++l)
                    ASSERT_EQ(c.probe(64 * l), ref.probe(64 * l))
                        << "line " << l << " after op " << i;
            }
        }
    }
}

/**
 * LRU kept the textbook way: an explicit recency list per set (most
 * recent first) holding the valid ways, no stamps. A victim is the
 * set's first invalid way, else the least recent eligible way on the
 * list. Shares Cache's pollution RNG stream, so the two must agree
 * on every outcome.
 */
class ListLruCache
{
  public:
    ListLruCache(const CacheParams &p, std::uint64_t seed)
        : p_(p), rng_(seed, 0x9e3779b97f4a7c15ULL)
    {
        sets_ = static_cast<std::uint32_t>(
            p.sizeBytes / (std::uint64_t(p.lineBytes) * p.assoc));
        while ((1u << shift_) < p.lineBytes)
            ++shift_;
        ways_.resize(std::size_t(sets_) * p.assoc);
        recency_.resize(sets_);
    }

    Cache::AccessResult
    access(Addr addr, bool is_write, Owner owner)
    {
        stats.accesses[static_cast<int>(owner)] += 1;
        Cache::AccessResult r;
        const std::uint32_t set = setOf(addr);
        int w = find(set, addr >> shift_);
        if (w >= 0) {
            way(set, w).dirty |= is_write;
            touch(set, w);
            r.hit = true;
            return r;
        }
        stats.misses[static_cast<int>(owner)] += 1;
        w = victim(set, false);
        Way &v = way(set, w);
        if (v.valid) {
            stats.evictions += 1;
            if (v.dirty) {
                stats.writebacks += 1;
                r.writeback = true;
            }
            if (v.owner == Owner::App && owner == Owner::Os) {
                stats.crossEvictions += 1;
                r.crossEviction = true;
            }
        }
        v = Way{true, is_write, owner, addr >> shift_};
        touch(set, w);
        return r;
    }

    bool
    install(Addr addr, Owner owner)
    {
        const std::uint32_t set = setOf(addr);
        int w = find(set, addr >> shift_);
        if (w >= 0) {
            touch(set, w);
            return false;
        }
        w = victim(set, false);
        Way &v = way(set, w);
        if (v.valid)
            stats.injectedEvictions += 1;
        stats.injectedFills += 1;
        v = Way{true, false, owner, addr >> shift_};
        touch(set, w);
        return true;
    }

    std::uint64_t
    pollute(std::uint64_t count, Cache::PollutionMode mode)
    {
        if (mode == Cache::PollutionMode::InvalidateApp)
            count = std::min(count, resident(Owner::App));
        else if (mode == Cache::PollutionMode::InvalidateAny)
            count = std::min(count, resident(Owner::App) +
                                        resident(Owner::Os));
        std::uint64_t affected = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            const std::uint32_t set = rng_.range(sets_);
            int w = firstInvalid(set);
            if (w >= 0 && mode != Cache::PollutionMode::Install)
                continue;
            if (w < 0)
                w = victim(set,
                           mode == Cache::PollutionMode::InvalidateApp);
            if (w < 0)
                continue;
            Way &line = way(set, w);
            if (line.valid)
                stats.injectedEvictions += 1;
            if (mode == Cache::PollutionMode::Install) {
                line = Way{true, false, Owner::Os,
                           (1ULL << 52) + synthetic_++};
                touch(set, w);
                stats.injectedFills += 1;
            } else {
                line.valid = false;
                line.dirty = false;
                recency_[set].remove(w);
            }
            ++affected;
        }
        return affected;
    }

    void
    flush()
    {
        for (Way &w : ways_)
            w = Way{};
        for (auto &list : recency_)
            list.clear();
        synthetic_ = 0;
    }

    bool
    probe(Addr addr) const
    {
        const std::uint32_t set = setOf(addr);
        for (std::uint32_t w = 0; w < p_.assoc; ++w) {
            const Way &line = ways_[std::size_t(set) * p_.assoc + w];
            if (line.valid && line.tag == addr >> shift_)
                return true;
        }
        return false;
    }

    std::uint64_t
    resident(Owner owner) const
    {
        std::uint64_t n = 0;
        for (const Way &w : ways_)
            n += w.valid && w.owner == owner;
        return n;
    }

    CacheStats stats;

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        Owner owner = Owner::App;
        Addr tag = 0;
    };

    std::uint32_t
    setOf(Addr addr) const
    {
        return static_cast<std::uint32_t>((addr >> shift_) &
                                          (sets_ - 1));
    }

    Way &
    way(std::uint32_t set, int w)
    {
        return ways_[std::size_t(set) * p_.assoc +
                     static_cast<std::size_t>(w)];
    }

    int
    find(std::uint32_t set, Addr tag)
    {
        for (std::uint32_t w = 0; w < p_.assoc; ++w)
            if (way(set, int(w)).valid && way(set, int(w)).tag == tag)
                return static_cast<int>(w);
        return -1;
    }

    int
    firstInvalid(std::uint32_t set)
    {
        for (std::uint32_t w = 0; w < p_.assoc; ++w)
            if (!way(set, int(w)).valid)
                return static_cast<int>(w);
        return -1;
    }

    /** First invalid way, else the least recent eligible one. */
    int
    victim(std::uint32_t set, bool app_only)
    {
        int w = firstInvalid(set);
        if (w >= 0)
            return w;
        const std::list<int> &order = recency_[set];
        for (auto it = order.rbegin(); it != order.rend(); ++it)
            if (!app_only || way(set, *it).owner == Owner::App)
                return *it;
        return -1;
    }

    void
    touch(std::uint32_t set, int w)
    {
        recency_[set].remove(w);
        recency_[set].push_front(w);
    }

    CacheParams p_;
    Pcg32 rng_;
    std::uint32_t sets_ = 0;
    std::uint32_t shift_ = 0;
    std::uint64_t synthetic_ = 0;
    std::vector<Way> ways_;
    std::vector<std::list<int>> recency_;  //!< per set, MRU first
};

/** The stamp array against a recency-list LRU on 2-, 4- and 8-way
 *  geometries: random access, install, pollute in all three modes
 *  and the occasional flush must yield the same outcomes, victims
 *  (hence residency), evictions, writebacks and injected counts. */
TEST(Cache, LruVictimsMatchReferenceModel)
{
    for (std::uint32_t assoc : {2u, 4u, 8u}) {
        const CacheParams p = smallCache(16ULL * 64 * assoc, assoc);
        Cache c(p, 31);
        ListLruCache ref(p, 31);
        const std::uint64_t span = 3 * 16 * assoc;
        Pcg32 rng(11, assoc);
        for (int i = 0; i < 30000; ++i) {
            Addr a = 64ULL * rng.range(span) + rng.range(64);
            Owner o = rng.range(3) ? Owner::App : Owner::Os;
            std::uint32_t op = rng.range(1000);
            if (op < 600) {
                bool w = rng.range(4) == 0;
                auto got = c.access(a, w, o);
                auto want = ref.access(a, w, o);
                ASSERT_EQ(got.hit, want.hit) << i;
                ASSERT_EQ(got.writeback, want.writeback) << i;
                ASSERT_EQ(got.crossEviction, want.crossEviction) << i;
            } else if (op < 800) {
                ASSERT_EQ(c.install(a, o), ref.install(a, o)) << i;
            } else if (op < 998) {
                auto mode =
                    static_cast<Cache::PollutionMode>(rng.range(3));
                std::uint64_t n = rng.range(12);
                ASSERT_EQ(c.pollute(n, mode), ref.pollute(n, mode))
                    << i;
            } else {
                c.flush();
                ref.flush();
            }
            if (i % 500 == 499) {
                expectSameStats(c.stats(), ref.stats);
                ASSERT_EQ(c.residentLines(Owner::App),
                          ref.resident(Owner::App))
                    << i;
                ASSERT_EQ(c.residentLines(Owner::Os),
                          ref.resident(Owner::Os))
                    << i;
                for (std::uint64_t l = 0; l < span; ++l)
                    ASSERT_EQ(c.probe(64 * l), ref.probe(64 * l))
                        << "line " << l << " after op " << i;
            }
        }
        EXPECT_GT(c.stats().evictions, 0u);
        EXPECT_GT(c.stats().writebacks, 0u);
        EXPECT_GT(c.stats().injectedEvictions, 0u);
    }
}

/** installCycled() against a plain per-line loop of the reference
 *  model's install(): seeded samples (repeated lines included)
 *  cycled to counts below, at and past their size, at
 *  associativities 1 to 16, into a cold cache, then into caches
 *  holding lines of both owners and, in some rounds, invalidated
 *  ways. Fills, stats,
 *  residency and resident lines must agree after every footprint,
 *  and so must the outcomes of the accesses that follow, which
 *  evict in the order the installs left the LRU stamps. */
TEST(Cache, InstallCycledMatchesPerLineLoop)
{
    for (std::uint32_t assoc : {1u, 2u, 4u, 8u, 16u}) {
        CacheParams p = smallCache(16ULL * 64 * assoc, assoc);
        Cache c(p, 41);
        ReferenceCache ref(p, 41);
        const std::uint64_t span = 4 * 16 * assoc;
        Pcg32 rng(13, assoc);
        auto randomAccesses = [&](int n) {
            for (int i = 0; i < n; ++i) {
                Addr a = 64ULL * rng.range(span) + rng.range(64);
                Owner o = rng.range(2) ? Owner::App : Owner::Os;
                bool w = rng.range(4) == 0;
                auto got = c.access(a, w, o);
                auto want = ref.access(a, w, o);
                ASSERT_EQ(got.hit, want.hit) << i;
                ASSERT_EQ(got.writeback, want.writeback) << i;
                ASSERT_EQ(got.crossEviction, want.crossEviction)
                    << i;
            }
        };
        for (int round = 0; round < 60; ++round) {
            // The first rounds install into a cold cache, whose
            // sets have several invalid ways; later ones into a
            // full cache, some after invalidating lines.
            if (round == 10)
                randomAccesses(2000);
            if (round > 10 && rng.range(3) == 0) {
                const std::uint64_t n = rng.range(16 * assoc);
                ASSERT_EQ(
                    c.pollute(n, Cache::PollutionMode::InvalidateAny),
                    ref.pollute(n,
                                Cache::PollutionMode::InvalidateAny));
            }
            std::vector<Addr> sample(1 + rng.range(3 * 16 * assoc));
            for (Addr &a : sample)
                a = 64ULL * rng.range(span) + rng.range(64);
            const std::uint64_t count =
                rng.range(3) == 0 ? sample.size()
                                  : rng.range(4 * sample.size());
            const Owner o = rng.range(2) ? Owner::App : Owner::Os;
            std::uint64_t want = 0;
            for (std::uint64_t i = 0; i < count; ++i)
                want += ref.install(sample[i % sample.size()], o);
            ASSERT_EQ(c.installCycled(sample, count, o), want)
                << "round " << round;
            expectSameStats(c.stats(), ref.stats);
            ASSERT_EQ(c.residentLines(Owner::App),
                      ref.resident(Owner::App));
            ASSERT_EQ(c.residentLines(Owner::Os),
                      ref.resident(Owner::Os));
            for (std::uint64_t l = 0; l < span; ++l)
                ASSERT_EQ(c.probe(64 * l), ref.probe(64 * l))
                    << "line " << l << " round " << round;
            randomAccesses(50);
        }
        EXPECT_EQ(c.installCycled({}, 10, Owner::Os), 0u);
        EXPECT_GT(c.stats().injectedEvictions, 0u);
    }
}

} // namespace
} // namespace osp
