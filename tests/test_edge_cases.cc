/**
 * @file
 * Edge cases and failure-injection tests across modules: degenerate
 * graphs, extreme widths/sparsities, stat resets, and API misuse
 * guards (death tests on panic paths).
 */

#include <gtest/gtest.h>

#include "core/beicsr.hh"
#include "core/compressor.hh"
#include "formats/dense.hh"
#include "graph/generators.hh"
#include "graph/partition.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace sgcn
{
namespace
{

// ---------------------------------------------------------------------
// Degenerate graphs
// ---------------------------------------------------------------------

TEST(EdgeCases, SingleVertexGraph)
{
    CsrGraph graph(1, {});
    EXPECT_EQ(graph.numVertices(), 1u);
    EXPECT_EQ(graph.numEdges(), 1u); // the self loop
    EXPECT_EQ(graph.degree(0), 1u);
    EXPECT_NEAR(graph.weights(0)[0], 1.0f, 1e-6);
}

TEST(EdgeCases, EdgelessVerticesGetSelfLoops)
{
    CsrGraph graph(8, {{0, 1}});
    for (VertexId v = 2; v < 8; ++v) {
        EXPECT_EQ(graph.degree(v), 1u);
        EXPECT_EQ(graph.neighbors(v)[0], v);
    }
}

TEST(EdgeCases, NoSelfLoopOption)
{
    CsrGraph graph(3, {{0, 1}}, true, false);
    EXPECT_EQ(graph.numEdges(), 2u);
    EXPECT_EQ(graph.degree(2), 0u);
    EXPECT_EQ(graph.localityScore(1), 1.0);
}

TEST(EdgeCases, TilingOnStarGraph)
{
    // A star: hub 0 connected to everyone.
    std::vector<EdgePair> edges;
    for (VertexId v = 1; v < 64; ++v)
        edges.emplace_back(0, v);
    CsrGraph graph(64, edges);
    TiledGraphView view(graph, 16, 16);
    EdgeId covered = 0;
    for (unsigned t = 0; t < view.numDstTiles(); ++t) {
        for (VertexId v = view.dstTileBegin(t); v < view.dstTileEnd(t);
             ++v) {
            for (unsigned c = 0; c < view.numSrcTiles(); ++c)
                covered += view.tileNeighbors(v, c).size();
        }
    }
    EXPECT_EQ(covered, graph.numEdges());
    // The hub's row spans all src tiles.
    EXPECT_EQ(view.tileNeighbors(0, 0).size() +
                  view.tileNeighbors(0, 1).size() +
                  view.tileNeighbors(0, 2).size() +
                  view.tileNeighbors(0, 3).size(),
              graph.degree(0));
}

// ---------------------------------------------------------------------
// Extreme feature shapes
// ---------------------------------------------------------------------

TEST(EdgeCases, OneColumnFeatureMatrix)
{
    Rng rng(311);
    FeatureMask mask = FeatureMask::random(16, 1, 0.5, rng);
    BeicsrLayout layout(1, 96);
    layout.prepare(mask, 0x4000'0000ULL);
    EXPECT_EQ(layout.numSlices(), 1u);
    for (VertexId v = 0; v < 16; ++v) {
        EXPECT_EQ(layout.planRowRead(v).totalLines(), 1u);
        EXPECT_LE(layout.sliceValues(v, 0), 1u);
    }
}

TEST(EdgeCases, SliceWiderThanRow)
{
    BeicsrLayout layout(64, 1024);
    EXPECT_EQ(layout.numSlices(), 1u);
    EXPECT_EQ(layout.sliceWidth(), 64u);
}

TEST(EdgeCases, AllZeroRowStillReadsBitmap)
{
    FeatureMask mask(4, 256); // nothing set
    BeicsrLayout layout(256, 96);
    layout.prepare(mask, 0x4000'0000ULL);
    // Bitmap head of each slice is still fetched (SV-A: the all-zero
    // row is the only case where values do not follow the index).
    EXPECT_EQ(layout.planRowRead(0).totalLines(), 3u);
    EXPECT_EQ(layout.sliceValues(0, 0), 0u);
}

TEST(EdgeCases, FullDensityRowOccupiesReservedStride)
{
    FeatureMask mask = FeatureMask::full(2, 256);
    BeicsrLayout layout(256, 96);
    layout.prepare(mask, 0x4000'0000ULL);
    // 2x (12B bitmap + 384B) + (8B bitmap + 256B), each line-padded.
    EXPECT_EQ(layout.planRowRead(0).totalLines(),
              divCeil(12 + 384, 64) * 2 + divCeil(8 + 256, 64));
}

TEST(EdgeCases, CompressorWidthSmallerThanSlice)
{
    Compressor compressor(8, 96);
    std::vector<float> values{1, -1, 2, -2, 3, -3, 4, -4};
    for (float v : values)
        compressor.push(v);
    ASSERT_TRUE(compressor.rowComplete());
    const auto decoded = decodeBeicsrRow(compressor.encodedRow(), 8, 96);
    EXPECT_EQ(decoded[0], 1.0f);
    EXPECT_EQ(decoded[1], 0.0f);
    EXPECT_EQ(compressor.rowNnz(), 4u);
}

// ---------------------------------------------------------------------
// Stat resets and bookkeeping
// ---------------------------------------------------------------------

TEST(EdgeCases, CacheResetStats)
{
    EventQueue events;
    Dram dram(DramConfig::hbm2(), events);
    CacheConfig config;
    Cache cache(config, dram, events);
    cache.accessFunctional(
        MemRequest{0, MemOp::Read, TrafficClass::FeatureIn});
    cache.resetStats();
    EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
    EXPECT_EQ(cache.functionalDramTraffic().totalLines(), 0u);
    // Contents survive the reset.
    EXPECT_TRUE(cache.accessFunctional(
        MemRequest{0, MemOp::Read, TrafficClass::FeatureIn}));
}

TEST(EdgeCases, CacheAndDramResetStats)
{
    EventQueue events;
    Dram dram(DramConfig::hbm2(), events);
    Cache cache({}, dram, events);
    cache.accessFunctional(
        MemRequest{0, MemOp::Read, TrafficClass::FeatureIn});
    cache.access(
        MemRequest{1 << 20, MemOp::Read, TrafficClass::FeatureIn},
        nullptr);
    events.run();
    cache.resetStats();
    dram.resetStats();
    EXPECT_EQ(cache.functionalDramTraffic().totalLines(), 0u);
    EXPECT_EQ(dram.traffic().totalLines(), 0u);
}

TEST(EdgeCases, DramInFlightDrainsToZero)
{
    EventQueue events;
    Dram dram(DramConfig::hbm2(), events);
    for (int i = 0; i < 10; ++i) {
        dram.access(MemRequest{static_cast<Addr>(i) * 64, MemOp::Read,
                               TrafficClass::FeatureIn},
                    nullptr);
    }
    EXPECT_EQ(dram.inFlight(), 10u);
    events.run();
    EXPECT_EQ(dram.inFlight(), 0u);
}

TEST(EdgeCases, EventQueuePendingCount)
{
    EventQueue events;
    events.schedule(5, [] {});
    events.schedule(6, [] {});
    EXPECT_EQ(events.pending(), 2u);
    events.step();
    EXPECT_EQ(events.pending(), 1u);
}

// ---------------------------------------------------------------------
// Panic guards (death tests)
// ---------------------------------------------------------------------

using EdgeCasesDeath = ::testing::Test;

TEST(EdgeCasesDeath, MisalignedDramRequestPanics)
{
    EXPECT_DEATH(
        {
            EventQueue events;
            Dram dram(DramConfig::hbm2(), events);
            dram.access(MemRequest{3, MemOp::Read,
                                   TrafficClass::FeatureIn},
                        nullptr);
        },
        "line-aligned");
}

TEST(EdgeCasesDeath, SchedulingIntoThePastPanics)
{
    EXPECT_DEATH(
        {
            EventQueue events;
            events.schedule(10, [] {});
            events.run();
            events.schedule(5, [] {});
        },
        "past");
}

TEST(EdgeCasesDeath, UnpreparedLayoutPanics)
{
    EXPECT_DEATH(
        {
            BeicsrLayout layout(256, 96);
            layout.planRowRead(0);
        },
        "");
}

TEST(EdgeCasesDeath, GeomeanRejectsNonPositive)
{
    EXPECT_DEATH(geomean({1.0, 0.0}), "positive");
}

} // namespace
} // namespace sgcn
