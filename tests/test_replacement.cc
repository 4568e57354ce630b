/**
 * @file
 * Replacement-policy tests: behavioural differences between LRU,
 * FIFO, Random, and SRRIP, including the streaming-thrash case
 * SRRIP exists for (the SV-C working-set-overflow scenario).
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "sim/rng.hh"

namespace sgcn
{
namespace
{

struct PolicyHarness
{
    EventQueue events;
    Dram dram{DramConfig::hbm2(), events};
    CacheConfig config;
    std::unique_ptr<Cache> cache;

    explicit PolicyHarness(ReplacementPolicy policy, unsigned ways = 4,
                           std::uint64_t size = 16 * 1024)
    {
        config.sizeBytes = size;
        config.ways = ways;
        config.replacement = policy;
        cache = std::make_unique<Cache>(config, dram, events);
    }

    bool
    touch(Addr line)
    {
        return cache->accessFunctional(
            MemRequest{line, MemOp::Read, TrafficClass::FeatureIn});
    }

    Addr
    conflicting(std::uint64_t i) const
    {
        return i * config.numSets() * kCachelineBytes;
    }
};

TEST(Replacement, PolicyNames)
{
    EXPECT_STREQ(replacementPolicyName(ReplacementPolicy::Lru), "LRU");
    EXPECT_STREQ(replacementPolicyName(ReplacementPolicy::Srrip),
                 "SRRIP");
}

TEST(Replacement, FifoIgnoresReuse)
{
    // Touch A..D (fills set), re-touch A, then add E.
    // LRU evicts B (A was refreshed); FIFO evicts A (oldest fill).
    PolicyHarness lru(ReplacementPolicy::Lru);
    PolicyHarness fifo(ReplacementPolicy::Fifo);
    for (auto *h : {&lru, &fifo}) {
        for (std::uint64_t i = 0; i < 4; ++i)
            h->touch(h->conflicting(i));
        h->touch(h->conflicting(0)); // reuse A
        h->touch(h->conflicting(4)); // insert E
    }
    EXPECT_TRUE(lru.touch(lru.conflicting(0)));   // A survived
    EXPECT_FALSE(fifo.touch(fifo.conflicting(0))); // A evicted
}

TEST(Replacement, SrripProtectsReusedSetFromStreaming)
{
    // Two proven-hot lines (re-referenced once at warm-up, then once
    // per round) against bursts of single-use streaming lines through
    // the same set. SRRIP inserts streams at a distant RRPV so they
    // evict each other; LRU lets every burst flush the hot lines —
    // the SV-C thrashing pattern.
    auto run = [](ReplacementPolicy policy) {
        PolicyHarness h(policy);
        // Warm-up: fill and immediately re-reference the hot lines.
        for (std::uint64_t hot = 0; hot < 2; ++hot) {
            h.touch(h.conflicting(hot));
            h.touch(h.conflicting(hot));
        }
        std::uint64_t hot_hits = 0;
        std::uint64_t stream_tag = 100;
        for (int round = 0; round < 200; ++round) {
            for (std::uint64_t hot = 0; hot < 2; ++hot)
                hot_hits += h.touch(h.conflicting(hot)) ? 1 : 0;
            // A burst of 4 never-reused lines through the same set.
            for (int burst = 0; burst < 4; ++burst)
                h.touch(h.conflicting(stream_tag++));
        }
        return hot_hits;
    };
    const std::uint64_t srrip_hits = run(ReplacementPolicy::Srrip);
    const std::uint64_t lru_hits = run(ReplacementPolicy::Lru);
    EXPECT_GT(srrip_hits, 300u); // ~2 hits x 200 rounds
    EXPECT_LT(lru_hits, 50u);
}

TEST(Replacement, RandomIsDeterministicAcrossRuns)
{
    auto run = [] {
        PolicyHarness h(ReplacementPolicy::Random);
        Rng rng(5);
        std::uint64_t hits = 0;
        for (int i = 0; i < 5000; ++i)
            hits += h.touch(h.conflicting(rng.uniformInt(8))) ? 1 : 0;
        return hits;
    };
    EXPECT_EQ(run(), run());
}

TEST(Replacement, UseStampRenormalizationIsOrderPreserving)
{
    // Drive a cache whose use-stamp counter renormalizes every few
    // accesses against one that never renormalizes within the test.
    // Renormalization dense-ranks the live stamps (order-preserving,
    // with stamp 0 reserved for invalid lines), so hit/miss behaviour
    // — i.e. every LRU victim decision — must be unchanged.
    auto run = [](std::uint32_t threshold) {
        PolicyHarness h(ReplacementPolicy::Lru);
        h.config.useStampRenormThreshold = threshold;
        h.cache = std::make_unique<Cache>(h.config, h.dram, h.events);
        Rng rng(23);
        std::uint64_t hits = 0;
        for (int i = 0; i < 4000; ++i) {
            hits += h.touch(h.conflicting(rng.uniformInt(7))) ? 1 : 0;
            hits <<= 1; // position-sensitive: orders must match too
            hits += hits >> 48;
        }
        return hits;
    };
    EXPECT_EQ(run(16), run(0xffff'fff0u));
}

class PolicySweep
    : public ::testing::TestWithParam<ReplacementPolicy>
{
};

TEST_P(PolicySweep, HitRateSaneOnZipfTraffic)
{
    PolicyHarness h(GetParam(), 8, 64 * 1024);
    Rng rng(17);
    std::uint64_t hits = 0;
    const int accesses = 20000;
    for (int i = 0; i < accesses; ++i) {
        // Zipf-ish: 80% of touches to 64 hot lines, rest uniform.
        const Addr line =
            rng.bernoulli(0.8)
                ? rng.uniformInt(64) * kCachelineBytes
                : rng.uniformInt(1 << 16) * kCachelineBytes;
        hits += h.touch(line) ? 1 : 0;
    }
    const double hit_rate = static_cast<double>(hits) / accesses;
    EXPECT_GT(hit_rate, 0.6);
    EXPECT_LT(hit_rate, 0.95);
}

TEST_P(PolicySweep, PinningSurvivesEveryPolicy)
{
    PolicyHarness h(GetParam());
    ASSERT_TRUE(h.cache->pin(0, TrafficClass::FeatureIn));
    for (std::uint64_t i = 1; i < 64; ++i)
        h.touch(h.conflicting(i));
    EXPECT_TRUE(h.touch(0));
}

void
expectSameCounters(const Cache &runs, const Cache &lines)
{
    EXPECT_EQ(runs.stats().hits, lines.stats().hits);
    EXPECT_EQ(runs.stats().misses, lines.stats().misses);
    EXPECT_EQ(runs.stats().evictions, lines.stats().evictions);
    EXPECT_EQ(runs.stats().writebacks, lines.stats().writebacks);
    for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
        EXPECT_EQ(runs.functionalDramTraffic().readLines[c],
                  lines.functionalDramTraffic().readLines[c]);
        EXPECT_EQ(runs.functionalDramTraffic().writeLines[c],
                  lines.functionalDramTraffic().writeLines[c]);
    }
}

/**
 * The fused run path (accessRunFunctional, one tag+victim pass per
 * line, statistics per run) against accessFunctional called once
 * per line: random runs of reads and writes through an 8-way cache
 * several times over capacity, optionally with live pins (pin()
 * caps each set at half its ways), must leave identical counters
 * and identical residency.
 */
TEST_P(PolicySweep, FusedRunsMatchPerLineAccesses)
{
    for (bool pins : {false, true}) {
        SCOPED_TRACE(pins ? "with pins" : "without pins");
        PolicyHarness runs(GetParam(), 8, 16 * 1024);
        PolicyHarness lines(GetParam(), 8, 16 * 1024);
        constexpr std::uint64_t kLines = 1024;
        Rng rng(pins ? 41 : 43);
        for (int op = 0; op < 6000; ++op) {
            if (pins && op % 50 == 0) {
                if (op % 1000 == 0) {
                    runs.cache->unpinAll();
                    lines.cache->unpinAll();
                }
                for (int p = 0; p < 8; ++p) {
                    const Addr line =
                        rng.uniformInt(kLines) * kCachelineBytes;
                    ASSERT_EQ(
                        runs.cache->pin(line, TrafficClass::FeatureIn),
                        lines.cache->pin(line, TrafficClass::FeatureIn));
                }
            }
            const Addr start = rng.uniformInt(kLines) * kCachelineBytes;
            const auto count =
                static_cast<std::uint32_t>(1 + rng.uniformInt(6));
            const MemOp mem_op =
                rng.bernoulli(0.3) ? MemOp::Write : MemOp::Read;
            // Half the runs repeat at once (the read-modify-write
            // psum pattern the duplicate-access memo serves).
            const int repeats = rng.bernoulli(0.5) ? 2 : 1;
            for (int r = 0; r < repeats; ++r) {
                runs.cache->accessRunFunctional(start, count, mem_op,
                                                TrafficClass::PartialSum);
                for (std::uint32_t i = 0; i < count; ++i) {
                    lines.cache->accessFunctional(MemRequest{
                        start + i * kCachelineBytes, mem_op,
                        TrafficClass::PartialSum});
                }
            }
        }
        expectSameCounters(*runs.cache, *lines.cache);

        // Residency: a follow-up sweep over every line hits in one
        // cache exactly where it hits in the other.
        for (std::uint64_t l = 0; l < kLines; ++l) {
            ASSERT_EQ(runs.touch(l * kCachelineBytes),
                      lines.touch(l * kCachelineBytes))
                << "line " << l;
        }
        runs.cache->flush();
        lines.cache->flush();
        expectSameCounters(*runs.cache, *lines.cache);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySweep,
    ::testing::Values(ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
                      ReplacementPolicy::Random,
                      ReplacementPolicy::Srrip),
    [](const auto &info) {
        return std::string(replacementPolicyName(info.param));
    });

} // namespace
} // namespace sgcn
