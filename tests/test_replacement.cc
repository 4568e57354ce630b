/**
 * @file
 * Replacement-policy tests: behavioural differences between LRU,
 * FIFO, Random, and SRRIP, including the streaming-thrash case
 * SRRIP exists for (the SV-C working-set-overflow scenario).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

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

TEST(Replacement, ProbeHitOutranksDuplicateAccessMemo)
{
    // accessFunctional skips the promotion of an immediate re-access
    // because its memo line is MRU. A timing hit or a pin on another
    // line of the set promotes that line past the memo's, so the
    // memo must not survive it: L re-accessed after M's promotion
    // is MRU again, and the next fill evicts M, not L.
    for (int via_pin = 0; via_pin < 2; ++via_pin) {
        PolicyHarness h(ReplacementPolicy::Lru, 2, 2 * 4 * 64);
        const Addr m = h.conflicting(0);
        const Addr l = h.conflicting(1);
        h.touch(m);
        h.touch(l);
        if (via_pin) {
            ASSERT_TRUE(h.cache->pin(m, TrafficClass::FeatureIn));
            h.cache->unpinAll();
        } else {
            h.cache->access(
                MemRequest{m, MemOp::Read, TrafficClass::FeatureIn},
                nullptr);
            h.events.run();
        }
        EXPECT_TRUE(h.touch(l));
        h.touch(h.conflicting(2));
        EXPECT_TRUE(h.cache->holds(l)) << (via_pin ? "pin" : "timing");
        EXPECT_FALSE(h.cache->holds(m)) << (via_pin ? "pin" : "timing");
    }
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

/**
 * Independent reference model of the cache's replacement behaviour:
 * each set is a list of ways in way order, each holding its line,
 * flags, 64-bit last-use and fill ticks (never renormalized) and
 * SRRIP RRPV. It shares no code with Cache: no stamps, no padding,
 * no vectors, no duplicate-access memo.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config)
        : cfg(config),
          sets(config.numSets(), std::vector<Way>(config.ways))
    {
    }

    bool
    access(Addr line_addr, bool write, TrafficClass cls, bool timing)
    {
        if (Way *way = find(line_addr)) {
            ++stats.hits;
            touch(*way);
            way->dirty |= write;
            return true;
        }
        ++stats.misses;
        if (!timing)
            traffic.add(MemOp::Read, cls);
        install(line_addr, timing).dirty = write;
        return false;
    }

    bool
    pin(Addr line_addr, TrafficClass cls)
    {
        unsigned pinned = 0;
        for (const Way &way : setOf(line_addr))
            pinned += way.pinned ? 1 : 0;
        if (pinned >= cfg.ways / 2)
            return false;
        Way *way = find(line_addr);
        if (way != nullptr) {
            touch(*way);
        } else {
            traffic.add(MemOp::Read, cls);
            way = &install(line_addr, false);
        }
        way->pinned = true;
        return true;
    }

    void
    unpinAll()
    {
        for (auto &set : sets) {
            for (Way &way : set)
                way.pinned = false;
        }
    }

    void
    flush()
    {
        for (auto &set : sets) {
            for (Way &way : set) {
                if (way.valid && way.dirty) {
                    ++stats.writebacks;
                    traffic.add(MemOp::Write, TrafficClass::FeatureOut);
                }
                way = Way{};
            }
        }
    }

    bool holds(Addr line_addr) { return find(line_addr) != nullptr; }

    CacheStats stats;
    TrafficCounters traffic;

  private:
    struct Way
    {
        bool valid = false;
        std::uint64_t line = 0;
        bool dirty = false;
        bool pinned = false;
        std::uint64_t lastUse = 0;
        std::uint64_t filled = 0;
        unsigned rrpv = 0;
    };

    std::vector<Way> &
    setOf(Addr line_addr)
    {
        return sets[(line_addr / kCachelineBytes) % sets.size()];
    }

    Way *
    find(Addr line_addr)
    {
        for (Way &way : setOf(line_addr)) {
            if (way.valid && way.line == line_addr / kCachelineBytes)
                return &way;
        }
        return nullptr;
    }

    void
    touch(Way &way)
    {
        way.lastUse = ++tick;
        way.rrpv = 0;
    }

    Way &
    install(Addr line_addr, bool timing)
    {
        std::vector<Way> &set = setOf(line_addr);
        Way &victim = set[victimIndex(set)];
        if (victim.valid) {
            ++stats.evictions;
            if (victim.dirty) {
                ++stats.writebacks;
                if (!timing)
                    traffic.add(MemOp::Write, TrafficClass::FeatureOut);
            }
        }
        ++tick;
        victim = Way{true, line_addr / kCachelineBytes, false, false,
                     tick, tick, 2};
        return victim;
    }

    /** LRU ranks by last use, FIFO by fill; the others' all-pinned
     *  fallback is plain LRU. */
    std::uint64_t
    age(const Way &way) const
    {
        return cfg.replacement == ReplacementPolicy::Fifo ? way.filled
                                                          : way.lastUse;
    }

    std::size_t
    oldest(const std::vector<Way> &set, bool skip_pinned) const
    {
        std::size_t best = set.size();
        for (std::size_t w = 0; w < set.size(); ++w) {
            if (skip_pinned && set[w].pinned)
                continue;
            if (best == set.size() || age(set[w]) < age(set[best]))
                best = w;
        }
        return best;
    }

    std::size_t
    victimIndex(std::vector<Way> &set)
    {
        for (std::size_t w = 0; w < set.size(); ++w) {
            if (!set[w].valid)
                return w;
        }
        std::size_t victim = set.size();
        switch (cfg.replacement) {
          case ReplacementPolicy::Lru:
          case ReplacementPolicy::Fifo:
            victim = oldest(set, true);
            break;
          case ReplacementPolicy::Random: {
            std::vector<std::size_t> candidates;
            for (std::size_t w = 0; w < set.size(); ++w) {
                if (!set[w].pinned)
                    candidates.push_back(w);
            }
            if (candidates.empty())
                break;
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            victim = candidates[seed % candidates.size()];
            break;
          }
          case ReplacementPolicy::Srrip:
            while (victim == set.size()) {
                bool aged = false;
                for (std::size_t w = 0; w < set.size(); ++w) {
                    if (!set[w].pinned && set[w].rrpv == 3) {
                        victim = w;
                        break;
                    }
                }
                if (victim != set.size())
                    break;
                for (Way &way : set) {
                    if (!way.pinned && way.rrpv != 3) {
                        ++way.rrpv;
                        aged = true;
                    }
                }
                if (!aged)
                    break;
            }
            break;
        }
        return victim != set.size() ? victim : oldest(set, false);
    }

    CacheConfig cfg;
    std::vector<std::vector<Way>> sets;
    std::uint64_t tick = 0;
    std::uint64_t seed = 0x5eed;
};

/** Counters, functional traffic and residency of @p cache against
 *  @p ref; residency over every line of [0, @p lines). */
::testing::AssertionResult
matchesReference(const Cache &cache, ReferenceCache &ref,
                 std::uint64_t lines)
{
    const CacheStats &got = cache.stats();
    if (got.hits != ref.stats.hits || got.misses != ref.stats.misses ||
        got.evictions != ref.stats.evictions ||
        got.writebacks != ref.stats.writebacks) {
        return ::testing::AssertionFailure()
               << "hits/misses/evictions/writebacks " << got.hits << "/"
               << got.misses << "/" << got.evictions << "/"
               << got.writebacks << " vs reference " << ref.stats.hits
               << "/" << ref.stats.misses << "/" << ref.stats.evictions
               << "/" << ref.stats.writebacks;
    }
    for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
        if (cache.functionalDramTraffic().readLines[c] !=
                ref.traffic.readLines[c] ||
            cache.functionalDramTraffic().writeLines[c] !=
                ref.traffic.writeLines[c]) {
            return ::testing::AssertionFailure()
                   << "functional traffic differs in class " << c;
        }
    }
    for (std::uint64_t l = 0; l < lines; ++l) {
        if (cache.holds(l * kCachelineBytes) !=
            ref.holds(l * kCachelineBytes)) {
            return ::testing::AssertionFailure()
                   << "residency of line " << l << " differs";
        }
    }
    return ::testing::AssertionSuccess();
}

/**
 * Seeded random streams through every entry point — accessFunctional
 * (with immediate repeats for the duplicate-access memo),
 * accessRunFunctional, accessRunRmwFunctional, the timing access
 * path, pins up to half the ways, unpinAll and flush — against the
 * reference model, checked after every step. Ways 1 and 3 pad their
 * sets with sentinel ways; a stamp renormalization fires every 64
 * ticks. Ties between invalid ways are positional under Random and
 * SRRIP, so a victim pick that took the last minimum-stamp way
 * instead of the first fails here.
 */
TEST_P(PolicySweep, MatchesReferenceModel)
{
    for (unsigned ways : {1u, 2u, 3u, 4u, 8u, 16u}) {
        SCOPED_TRACE("ways " + std::to_string(ways));
        constexpr std::uint64_t kSets = 8;
        PolicyHarness h(GetParam(), ways,
                        kSets * ways * kCachelineBytes);
        h.config.useStampRenormThreshold = 64;
        h.cache = std::make_unique<Cache>(h.config, h.dram, h.events);
        ReferenceCache ref(h.config);
        const std::uint64_t universe = 4 * kSets * ways;
        Rng rng(1000 + ways);
        const auto pick_line = [&] {
            return rng.uniformInt(universe) * kCachelineBytes;
        };
        Addr last_functional = 0;
        for (int step = 0; step < 3000; ++step) {
            const double roll = rng.uniform();
            const bool write = rng.bernoulli(0.3);
            const MemOp op = write ? MemOp::Write : MemOp::Read;
            if (roll < 0.35) {
                // Often the previous functional line again, after
                // whatever other path ran in between.
                const Addr line =
                    rng.bernoulli(0.3) ? last_functional : pick_line();
                last_functional = line;
                const int repeats = rng.bernoulli(0.3) ? 2 : 1;
                for (int r = 0; r < repeats; ++r) {
                    ASSERT_EQ(h.cache->accessFunctional(MemRequest{
                                  line, op, TrafficClass::FeatureIn}),
                              ref.access(line, write,
                                         TrafficClass::FeatureIn,
                                         false));
                }
            } else if (roll < 0.6) {
                const Addr start = pick_line();
                const auto count =
                    static_cast<std::uint32_t>(1 + rng.uniformInt(5));
                h.cache->accessRunFunctional(start, count, op,
                                             TrafficClass::Weight);
                for (std::uint32_t i = 0; i < count; ++i) {
                    ref.access(start + i * kCachelineBytes, write,
                               TrafficClass::Weight, false);
                }
            } else if (roll < 0.72) {
                const Addr start = pick_line();
                const auto count =
                    static_cast<std::uint32_t>(1 + rng.uniformInt(4));
                h.cache->accessRunRmwFunctional(
                    start, count, TrafficClass::PartialSum);
                for (std::uint32_t i = 0; i < count; ++i) {
                    const Addr line = start + i * kCachelineBytes;
                    ref.access(line, false, TrafficClass::PartialSum,
                               false);
                    ref.access(line, true, TrafficClass::PartialSum,
                               false);
                }
            } else if (roll < 0.87) {
                const Addr line = pick_line();
                h.cache->access(
                    MemRequest{line, op, TrafficClass::FeatureIn},
                    nullptr);
                h.events.run();
                ref.access(line, write, TrafficClass::FeatureIn, true);
            } else if (roll < 0.96) {
                const Addr line = pick_line();
                ASSERT_EQ(h.cache->pin(line, TrafficClass::Topology),
                          ref.pin(line, TrafficClass::Topology));
            } else if (roll < 0.985) {
                h.cache->unpinAll();
                ref.unpinAll();
            } else {
                h.cache->flush();
                ref.flush();
            }
            ASSERT_TRUE(matchesReference(*h.cache, ref, universe))
                << "after step " << step;
        }
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
