/**
 * @file
 * Unit tests for the bulk (plan-granular) memory access API:
 * Dram::accessBurst / accessRun and Cache::accessBurst /
 * accessBurstRmw, which the timing engines call directly (topology
 * and stream DMA on Dram, feature gathers and partial-sum updates on
 * a Cache). The core property throughout is
 * request-for-request equivalence with the per-line issue loop the
 * bulk path replaced: same completion cycles, same counters, same
 * event counts — with exactly one completion per plan. Pinned
 * timelines (the MSHR overflow queue, DRAM transient retries) and a
 * no-spill check cover the plain-data queues that carry each line's
 * completion as a burst node pointer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/small_function.hh"

namespace sgcn
{
namespace
{

/** One DRAM + event queue, for twin-run equivalence checks. */
struct DramRig
{
    EventQueue events;
    Dram dram{DramConfig::hbm2(), events};
};

/** One cache hierarchy + event queue. */
struct CacheRig
{
    explicit CacheRig(const CacheConfig &config = CacheConfig{})
        : cache(config, dram, events)
    {
    }

    EventQueue events;
    Dram dram{DramConfig::hbm2(), events};
    Cache cache;
};

/** FNV-1a over a cycle sequence: pins a long timeline in one value. */
std::uint64_t
hashCycles(const std::vector<Cycle> &cycles)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const Cycle cycle : cycles) {
        hash ^= cycle;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

void
expectSameTraffic(const TrafficCounters &a, const TrafficCounters &b)
{
    for (unsigned i = 0; i < kNumTrafficClasses; ++i) {
        EXPECT_EQ(a.readLines[i], b.readLines[i]) << "class " << i;
        EXPECT_EQ(a.writeLines[i], b.writeLines[i]) << "class " << i;
    }
}

AccessPlan
multiRowPlan()
{
    // Three runs: one spanning several channel-interleave stripes
    // and DRAM rows, one single line, one mid-sized — and far enough
    // apart to land in different rows and cache sets.
    AccessPlan plan;
    plan.addLines(0x0000, 40);       // 2560 B: > 2 rows of 1 KB
    plan.addLines(0x40000, 1);
    plan.addLines(0x81000, 9);
    return plan;
}

TEST(DramBurst, ZeroLinePlanCompletesImmediately)
{
    DramRig rig;
    int fired = 0;
    rig.dram.accessBurst(AccessPlan{}, MemOp::Read,
                         TrafficClass::FeatureIn,
                         MemCallback([&] { ++fired; }));
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(rig.events.empty());
    EXPECT_EQ(rig.dram.traffic().totalLines(), 0u);
}

TEST(DramBurst, SingleLinePlanMatchesSingleAccess)
{
    DramRig burst_rig, line_rig;

    AccessPlan plan;
    plan.addLines(0x1000, 1);

    Cycle burst_done = 0, line_done = 0;
    burst_rig.dram.accessBurst(
        plan, MemOp::Read, TrafficClass::FeatureIn,
        MemCallback([&] { burst_done = burst_rig.events.now(); }));
    line_rig.dram.access(
        MemRequest{0x1000, MemOp::Read, TrafficClass::FeatureIn},
        MemCallback([&] { line_done = line_rig.events.now(); }));
    burst_rig.events.run();
    line_rig.events.run();

    EXPECT_GT(burst_done, 0u);
    EXPECT_EQ(burst_done, line_done);
    EXPECT_EQ(burst_rig.events.executed(), line_rig.events.executed());
}

TEST(DramBurst, MultiRowPlanMatchesPerLineIssue)
{
    DramRig burst_rig, line_rig;
    const AccessPlan plan = multiRowPlan();
    const auto total = plan.totalLines();

    Cycle burst_done = 0;
    unsigned burst_completions = 0;
    burst_rig.dram.accessBurst(plan, MemOp::Read,
                               TrafficClass::FeatureIn,
                               MemCallback([&] {
                                   ++burst_completions;
                                   burst_done =
                                       burst_rig.events.now();
                               }));

    // Reference: the old per-line pattern with a manual join.
    unsigned remaining = static_cast<unsigned>(total);
    Cycle line_done = 0;
    plan.forEachLine([&](Addr line) {
        line_rig.dram.access(
            MemRequest{line, MemOp::Read, TrafficClass::FeatureIn},
            MemCallback([&] {
                if (--remaining == 0)
                    line_done = line_rig.events.now();
            }));
    });

    burst_rig.events.run();
    line_rig.events.run();

    EXPECT_EQ(burst_completions, 1u);
    EXPECT_EQ(burst_done, line_done);
    EXPECT_EQ(burst_rig.events.executed(), line_rig.events.executed());
    EXPECT_EQ(burst_rig.dram.traffic().totalLines(), total);
    EXPECT_EQ(burst_rig.dram.rowHits(), line_rig.dram.rowHits());
    EXPECT_EQ(burst_rig.dram.rowMisses(), line_rig.dram.rowMisses());
    EXPECT_EQ(burst_rig.dram.busBusyCycles(),
              line_rig.dram.busBusyCycles());
}

TEST(DramBurst, ReadAndWriteCountSeparately)
{
    DramRig rig;
    AccessPlan plan;
    plan.addLines(0x0000, 4);
    int done = 0;
    rig.dram.accessBurst(plan, MemOp::Read, TrafficClass::FeatureIn,
                         MemCallback([&] { ++done; }));
    rig.dram.accessBurst(plan, MemOp::Write, TrafficClass::FeatureOut,
                         MemCallback([&] { ++done; }));
    rig.events.run();
    EXPECT_EQ(done, 2);
    const TrafficCounters &traffic = rig.dram.traffic();
    EXPECT_EQ(traffic.readLines[static_cast<unsigned>(
                  TrafficClass::FeatureIn)],
              4u);
    EXPECT_EQ(traffic.writeLines[static_cast<unsigned>(
                  TrafficClass::FeatureOut)],
              4u);
}

TEST(DramBurst, InterleavedBurstsCompleteExactlyOnce)
{
    DramRig rig;
    constexpr int kBursts = 16;
    std::vector<int> completions(kBursts, 0);
    for (int b = 0; b < kBursts; ++b) {
        AccessPlan plan;
        // Overlapping addresses across bursts, multiple rows each.
        plan.addLines(static_cast<Addr>(b) * 512, 24);
        rig.dram.accessBurst(plan, MemOp::Read,
                             TrafficClass::FeatureIn,
                             MemCallback([&completions, b] {
                                 ++completions[b];
                             }));
    }
    rig.events.run();
    for (int b = 0; b < kBursts; ++b)
        EXPECT_EQ(completions[b], 1) << "burst " << b;
    EXPECT_EQ(rig.dram.inFlight(), 0u);
}

TEST(DramBurst, AccessRunFiresPerLine)
{
    DramRig rig;
    unsigned fired = 0;
    rig.dram.accessRun(0x2000, 7, MemOp::Read,
                       TrafficClass::Topology,
                       MemCallback([&] { ++fired; }));
    rig.events.run();
    EXPECT_EQ(fired, 7u);
    EXPECT_EQ(rig.dram.traffic().classLines(TrafficClass::Topology),
              7u);

    // Zero-length runs are a no-op, not a completion.
    rig.dram.accessRun(0x2000, 0, MemOp::Read,
                       TrafficClass::Topology,
                       MemCallback([&] { ++fired; }));
    EXPECT_TRUE(rig.events.empty());
    EXPECT_EQ(fired, 7u);
}

TEST(DramBurst, TransientRetriesReplayExactly)
{
    // A retried line re-rides the channel queue as a plain entry;
    // pin the whole retry timeline of a fixed mixed plan (reads over
    // several rows and channels, writes, a per-line run).
    DramConfig config = DramConfig::hbm2();
    config.transientRetryProb = 0.25;
    config.retrySeed = 11;
    EventQueue events;
    Dram dram(config, events);

    AccessPlan writes;
    writes.addLines(0x20000, 24);
    writes.addLines(0x60040, 5);
    Cycle reads_done = 0, writes_done = 0, run_done = 0;
    unsigned run_lines = 0;
    dram.accessBurst(multiRowPlan(), MemOp::Read,
                     TrafficClass::FeatureIn,
                     MemCallback([&] { reads_done = events.now(); }));
    dram.accessBurst(writes, MemOp::Write, TrafficClass::FeatureOut,
                     MemCallback([&] { writes_done = events.now(); }));
    dram.accessRun(0x1000, 12, MemOp::Read, TrafficClass::Topology,
                   MemCallback([&] {
                       ++run_lines;
                       run_done = events.now();
                   }));
    events.run();

    EXPECT_EQ(run_lines, 12u);
    EXPECT_EQ(dram.inFlight(), 0u);
    // Retries change timing, never the booked traffic.
    EXPECT_EQ(dram.traffic().totalLines(), 50u + 29u + 12u);
    EXPECT_EQ(dram.transientRetries(), 20u);
    EXPECT_EQ(dram.rowHits(), 91u);
    EXPECT_EQ(dram.rowMisses(), 20u);
    EXPECT_EQ(dram.busBusyCycles(), 222u);
    EXPECT_EQ(reads_done, 122u);
    EXPECT_EQ(writes_done, 190u);
    EXPECT_EQ(run_done, 56u);
    EXPECT_EQ(events.executed(), 305u);
}

TEST(CacheBurst, ZeroLinePlanCompletesImmediately)
{
    CacheRig rig;
    int fired = 0;
    rig.cache.accessBurst(AccessPlan{}, MemOp::Read,
                          TrafficClass::FeatureIn,
                          MemCallback([&] { ++fired; }));
    rig.cache.accessBurstRmw(AccessPlan{}, TrafficClass::PartialSum,
                             MemCallback([&] { ++fired; }));
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(rig.events.empty());
}

TEST(CacheBurst, MatchesPerLineIssue)
{
    CacheRig burst_rig, line_rig;
    const AccessPlan plan = multiRowPlan();

    Cycle burst_done = 0;
    unsigned burst_completions = 0;
    burst_rig.cache.accessBurst(plan, MemOp::Read,
                                TrafficClass::FeatureIn,
                                MemCallback([&] {
                                    ++burst_completions;
                                    burst_done =
                                        burst_rig.events.now();
                                }));

    unsigned remaining = static_cast<unsigned>(plan.totalLines());
    Cycle line_done = 0;
    plan.forEachLine([&](Addr line) {
        line_rig.cache.access(
            MemRequest{line, MemOp::Read, TrafficClass::FeatureIn},
            MemCallback([&] {
                if (--remaining == 0)
                    line_done = line_rig.events.now();
            }));
    });

    burst_rig.events.run();
    line_rig.events.run();

    EXPECT_EQ(burst_completions, 1u);
    EXPECT_EQ(burst_done, line_done);
    EXPECT_EQ(burst_rig.events.executed(), line_rig.events.executed());
    EXPECT_EQ(burst_rig.cache.stats().hits, line_rig.cache.stats().hits);
    EXPECT_EQ(burst_rig.cache.stats().misses,
              line_rig.cache.stats().misses);
    EXPECT_EQ(burst_rig.dram.traffic().totalLines(),
              line_rig.dram.traffic().totalLines());
}

TEST(CacheBurst, SecondBurstHitsResidentLines)
{
    CacheRig rig;
    AccessPlan plan;
    plan.addLines(0x4000, 8);
    Cycle first_done = 0, second_done = 0;
    rig.cache.accessBurst(plan, MemOp::Read, TrafficClass::FeatureIn,
                          MemCallback([&] {
                              first_done = rig.events.now();
                          }));
    rig.events.run();
    rig.cache.accessBurst(plan, MemOp::Read, TrafficClass::FeatureIn,
                          MemCallback([&] {
                              second_done = rig.events.now();
                          }));
    rig.events.run();
    EXPECT_EQ(rig.cache.stats().misses, 8u);
    EXPECT_EQ(rig.cache.stats().hits, 8u);
    // The resident pass completes after the hit latency alone.
    EXPECT_EQ(second_done - first_done,
              rig.cache.config().hitLatency);
}

TEST(CacheBurst, RmwIssuesReadThenWritePerLine)
{
    CacheRig rig;
    AccessPlan plan;
    plan.addLines(0x8000, 5);
    unsigned completions = 0;
    rig.cache.accessBurstRmw(plan, TrafficClass::PartialSum,
                             MemCallback([&] { ++completions; }));
    rig.events.run();
    EXPECT_EQ(completions, 1u);
    // Each line: the read allocates an MSHR, the immediately-issued
    // write misses the tag array too and coalesces onto it.
    EXPECT_EQ(rig.cache.stats().misses, 10u);
    EXPECT_EQ(rig.cache.stats().mshrCoalesced, 5u);
    EXPECT_EQ(rig.cache.stats().hits, 0u);
}

TEST(CacheBurst, InterleavedRmwBurstsCompleteExactlyOnce)
{
    CacheRig rig;
    constexpr int kBursts = 12;
    std::vector<int> completions(kBursts, 0);
    for (int b = 0; b < kBursts; ++b) {
        AccessPlan plan;
        // Overlap half the bursts on the same lines to exercise MSHR
        // coalescing under joined completions.
        plan.addLines(static_cast<Addr>(b / 2) * 1024, 6);
        rig.cache.accessBurstRmw(plan, TrafficClass::PartialSum,
                                 MemCallback([&completions, b] {
                                     ++completions[b];
                                 }));
    }
    rig.events.run();
    for (int b = 0; b < kBursts; ++b)
        EXPECT_EQ(completions[b], 1) << "burst " << b;
    EXPECT_EQ(rig.cache.outstandingMisses(), 0u);
}

TEST(CacheBurst, RoutesPlanThroughCache)
{
    CacheRig rig;
    AccessPlan plan;
    plan.addLines(0x1000, 4);
    int done = 0;
    rig.cache.accessBurst(plan, MemOp::Read, TrafficClass::FeatureIn,
                          MemCallback([&] { ++done; }));
    rig.events.run();
    EXPECT_EQ(done, 1);
    EXPECT_EQ(rig.cache.stats().misses, 4u);
    // Every miss fills from DRAM on the timing path.
    EXPECT_EQ(rig.dram.traffic().classLines(TrafficClass::FeatureIn),
              4u);

    // A zero-line plan completes at once on the cache route too.
    rig.cache.accessBurst(AccessPlan{}, MemOp::Read,
                          TrafficClass::FeatureIn,
                          MemCallback([&] { ++done; }));
    EXPECT_EQ(done, 2);
}

TEST(CacheBurst, OverflowQueueKeepsFifoAcrossCompactions)
{
    // Two MSHRs and an 11,200-line burst: all but two lines wait in
    // the MSHR-full overflow queue, and each fill admits the next
    // one. The queue drops its consumed prefix whenever the head
    // passes half of it (about a dozen times here); admission order,
    // and with it every line's completion cycle, must not move.
    CacheConfig config;
    config.mshrs = 2;
    AccessPlan plan;
    for (unsigned r = 0; r < AccessPlan::kMaxRuns; ++r)
        plan.addLines(static_cast<Addr>(r) * 0x11000, 700);
    ASSERT_EQ(plan.totalLines(), 11200u);

    CacheRig burst_rig(config), line_rig(config);
    Cycle burst_done = 0;
    unsigned burst_completions = 0;
    burst_rig.cache.accessBurst(plan, MemOp::Read,
                                TrafficClass::FeatureIn,
                                MemCallback([&] {
                                    ++burst_completions;
                                    burst_done =
                                        burst_rig.events.now();
                                }));

    std::vector<Cycle> line_done(plan.totalLines(), 0);
    std::size_t next = 0;
    plan.forEachLine([&](Addr line) {
        Cycle *slot = &line_done[next++];
        line_rig.cache.access(
            MemRequest{line, MemOp::Read, TrafficClass::FeatureIn},
            MemCallback([slot, &events = line_rig.events] {
                *slot = events.now();
            }));
    });

    burst_rig.events.run();
    line_rig.events.run();

    EXPECT_EQ(burst_completions, 1u);
    EXPECT_EQ(std::count(line_done.begin(), line_done.end(), Cycle{0}),
              0);
    EXPECT_EQ(burst_done,
              *std::max_element(line_done.begin(), line_done.end()));
    EXPECT_EQ(burst_rig.events.executed(), line_rig.events.executed());
    const CacheStats &burst = burst_rig.cache.stats();
    const CacheStats &line = line_rig.cache.stats();
    EXPECT_EQ(burst.hits, line.hits);
    EXPECT_EQ(burst.misses, line.misses);
    EXPECT_EQ(burst.mshrCoalesced, line.mshrCoalesced);
    EXPECT_EQ(burst.evictions, line.evictions);
    EXPECT_EQ(burst.writebacks, line.writebacks);
    expectSameTraffic(burst_rig.dram.traffic(), line_rig.dram.traffic());
    EXPECT_EQ(burst_rig.dram.rowHits(), line_rig.dram.rowHits());
    EXPECT_EQ(burst_rig.dram.rowMisses(), line_rig.dram.rowMisses());
    EXPECT_EQ(burst_rig.cache.outstandingMisses(), 0u);

    // Pinned per-line timeline: FIFO admission from the overflow
    // queue, as a queue that never drops its prefix admits.
    EXPECT_EQ(line.misses, 11200u);
    EXPECT_EQ(line.evictions, 11200u - 8192u);
    EXPECT_EQ(hashCycles(line_done), 16563756001517049445ull);
    EXPECT_EQ(burst_done, 109316u);
}

TEST(MemPath, LinesNeverSpillCallbacksToTheSlab)
{
    // Spilled event captures return to a thread-local free list, so
    // on a fresh thread the list afterwards counts every block the
    // run ever spilled. Lines carry burst node pointers, so neither
    // cache hits and fills, MSHR targets, the overflow queue, dirty
    // writebacks nor DRAM completions may spill.
    std::size_t spilled = ~std::size_t{0};
    std::uint64_t writebacks = 0, misses = 0;
    unsigned done = 0;
    std::thread([&] {
        CacheConfig config;
        config.sizeBytes = 16 * 1024; // 256 lines
        config.mshrs = 8;
        CacheRig rig(config);
        AccessPlan writes, reads;
        writes.addLines(0x0, 512);
        reads.addLines(0x100000, 384);
        reads.addLines(0x0, 64);
        rig.cache.accessBurst(writes, MemOp::Write,
                              TrafficClass::FeatureOut,
                              MemCallback([&done] { ++done; }));
        rig.cache.accessBurst(reads, MemOp::Read,
                              TrafficClass::FeatureIn,
                              MemCallback([&done] { ++done; }));
        rig.dram.accessRun(0x200000, 64, MemOp::Read,
                           TrafficClass::Topology,
                           MemCallback([&done] { ++done; }));
        rig.events.run();
        writebacks = rig.cache.stats().writebacks;
        misses = rig.cache.stats().misses;
        spilled = detail::CallbackSlab::freeBlocks();
    }).join();
    EXPECT_EQ(done, 2u + 64u);
    EXPECT_GE(misses, 512u + 384u);
    EXPECT_GT(writebacks, 0u);
    EXPECT_EQ(spilled, 0u);
}

} // namespace
} // namespace sgcn
