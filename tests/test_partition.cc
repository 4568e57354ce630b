/**
 * @file
 * Multi-chip vertex partitioner invariants: the shards cover the
 * parent disjointly, every directed edge lands on exactly one chip,
 * the halo of a chip is exactly its cross-chip in-neighbour set, the
 * renumbered subgraphs carry the parent's edges and normalization
 * verbatim, and the edge-balanced policy actually balances skewed
 * graphs better than the contiguous cut.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "accel/stream_artifacts.hh"
#include "fixtures.hh"
#include "graph/partition.hh"

namespace sgcn
{
namespace
{

/** A star: every vertex attaches to hub 0, so row 0 owns almost all
 *  of the directed edges — the worst case for a contiguous cut. */
CsrGraph
starGraph(VertexId n)
{
    std::vector<EdgePair> edges;
    for (VertexId v = 1; v < n; ++v)
        edges.push_back({0, v});
    return CsrGraph(n, std::move(edges));
}

struct PartitionTest : ::testing::Test
{
    std::shared_ptr<const CsrGraph> shared =
        std::make_shared<const CsrGraph>(testfx::cora().graph);
    const CsrGraph &parent = *shared;
};

TEST_F(PartitionTest, ShardsCoverParentDisjointly)
{
    for (unsigned chips : {1u, 2u, 4u, 5u}) {
        for (PartitionPolicy policy : {PartitionPolicy::Contiguous,
                                       PartitionPolicy::EdgeBalanced}) {
            const GraphPartition partition(shared, chips, policy);
            ASSERT_EQ(partition.numChips(), chips);
            EXPECT_EQ(partition.numVertices(), parent.numVertices());

            VertexId cursor = 0;
            for (unsigned c = 0; c < chips; ++c) {
                const ChipShard &shard = partition.shard(c);
                EXPECT_EQ(shard.chip, c);
                EXPECT_EQ(shard.begin, cursor);
                EXPECT_LT(shard.begin, shard.end)
                    << "empty shard " << c;
                cursor = shard.end;
            }
            EXPECT_EQ(cursor, parent.numVertices());

            for (VertexId v = 0; v < parent.numVertices(); ++v) {
                const unsigned owner = partition.ownerOf(v);
                EXPECT_LE(partition.shard(owner).begin, v);
                EXPECT_LT(v, partition.shard(owner).end);
            }
        }
    }
}

TEST_F(PartitionTest, EveryEdgeOnExactlyOneChip)
{
    for (PartitionPolicy policy : {PartitionPolicy::Contiguous,
                                   PartitionPolicy::EdgeBalanced}) {
        const GraphPartition partition(shared, 4, policy);
        EdgeId total = 0;
        for (const ChipShard &shard : partition.shards()) {
            // The chip subgraph holds exactly the owned edges: halo
            // rows are empty (aggregation sources only).
            EXPECT_EQ(shard.graph->numEdges(), shard.ownedEdges);
            for (VertexId h = shard.ownedRows();
                 h < shard.graph->numVertices(); ++h) {
                EXPECT_EQ(shard.graph->degree(h), 0u);
            }
            total += shard.ownedEdges;
        }
        EXPECT_EQ(total, parent.numEdges());
    }
}

TEST_F(PartitionTest, SubgraphEdgesAndWeightsMatchParentRows)
{
    const GraphPartition partition(shared, 3,
                                   PartitionPolicy::EdgeBalanced);
    for (const ChipShard &shard : partition.shards()) {
        for (VertexId v = shard.begin; v < shard.end; ++v) {
            const VertexId local = shard.chipRowOf(v);
            EXPECT_EQ(local, v - shard.begin);
            const auto parent_nbrs = parent.neighbors(v);
            const auto parent_wts = parent.weights(v);
            const auto chip_nbrs = shard.graph->neighbors(local);
            const auto chip_wts = shard.graph->weights(local);
            ASSERT_EQ(chip_nbrs.size(), parent_nbrs.size());
            for (std::size_t i = 0; i < parent_nbrs.size(); ++i) {
                // Neighbour ids map back through the chip
                // renumbering; weights are the parent's bits.
                EXPECT_EQ(chip_nbrs[i],
                          shard.chipRowOf(parent_nbrs[i]));
                EXPECT_EQ(chip_wts[i], parent_wts[i]);
            }
        }
    }
}

TEST_F(PartitionTest, HaloIsExactlyTheCrossChipInNeighbourSet)
{
    for (unsigned chips : {2u, 4u}) {
        const GraphPartition partition(shared, chips,
                                       PartitionPolicy::EdgeBalanced);
        std::uint64_t halo_total = 0;
        for (const ChipShard &shard : partition.shards()) {
            std::set<VertexId> expected;
            for (VertexId v = shard.begin; v < shard.end; ++v) {
                for (VertexId u : parent.neighbors(v)) {
                    if (u < shard.begin || u >= shard.end)
                        expected.insert(u);
                }
            }
            const std::vector<VertexId> want(expected.begin(),
                                             expected.end());
            EXPECT_EQ(shard.halo, want);
            EXPECT_TRUE(std::is_sorted(shard.halo.begin(),
                                       shard.halo.end()));
            for (VertexId u : shard.halo)
                EXPECT_NE(partition.ownerOf(u), shard.chip);
            halo_total += shard.halo.size();
        }
        EXPECT_EQ(partition.totalHaloVertices(), halo_total);
    }
}

TEST_F(PartitionTest, EdgeBalancedBeatsContiguousOnSkew)
{
    const auto star = std::make_shared<const CsrGraph>(starGraph(256));
    const GraphPartition contiguous(star, 4,
                                    PartitionPolicy::Contiguous);
    const GraphPartition balanced(star, 4,
                                  PartitionPolicy::EdgeBalanced);
    // The contiguous cut lands the hub row plus a quarter of the
    // leaves on chip 0; the edge-balanced cut isolates the hub.
    EXPECT_LT(balanced.maxOwnedEdges(), contiguous.maxOwnedEdges());
}

TEST_F(PartitionTest, SingleChipIsTheWholeGraph)
{
    const GraphPartition partition(shared, 1,
                                   PartitionPolicy::EdgeBalanced);
    const ChipShard &shard = partition.shard(0);
    EXPECT_EQ(shard.begin, 0u);
    EXPECT_EQ(shard.end, parent.numVertices());
    EXPECT_TRUE(shard.halo.empty());
    EXPECT_EQ(shard.ownedEdges, parent.numEdges());
    EXPECT_EQ(shard.graph->numVertices(), parent.numVertices());
    // Identity renumbering: the shard aliases the parent instead of
    // copying it, and the partition does not count it twice.
    EXPECT_EQ(shard.graph, shared);
    EXPECT_LT(partition.footprintBytes(), parent.footprintBytes());

    // A whole-graph shard's chip masks are the parent masks, handle
    // and key, so its layouts share the global cache entries.
    auto &artifacts = StreamArtifactCache::instance();
    const auto mask =
        artifacts.randomMask(parent.numVertices(), 64, 0.5, 7);
    for (bool include_halo : {true, false}) {
        const auto chip =
            artifacts.chipMask(mask, partition, 0, include_halo);
        EXPECT_EQ(chip.mask, mask.mask);
        EXPECT_EQ(chip.key, mask.key);
    }
}

TEST_F(PartitionTest, PolicyByNameRoundTrips)
{
    EXPECT_EQ(partitionPolicyByName("contiguous"),
              PartitionPolicy::Contiguous);
    EXPECT_EQ(partitionPolicyByName("edge"),
              PartitionPolicy::EdgeBalanced);
    EXPECT_EQ(partitionPolicyByName("edge-balanced"),
              PartitionPolicy::EdgeBalanced);
}

} // namespace
} // namespace sgcn
