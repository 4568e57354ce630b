/**
 * @file
 * Unit tests for the bulk (plan-granular) memory access API:
 * Dram::accessBurst / accessRun and Cache::accessBurst /
 * accessBurstRmw, which the timing engines call directly (topology
 * and stream DMA on Dram, feature gathers and partial-sum updates on
 * a Cache). The core property throughout is
 * request-for-request equivalence with the per-line issue loop the
 * bulk path replaced: same completion cycles, same counters, same
 * event counts — with exactly one completion per plan.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"

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
    EventQueue events;
    Dram dram{DramConfig::hbm2(), events};
    Cache cache{CacheConfig{}, dram, events};
};

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

} // namespace
} // namespace sgcn
