/**
 * @file
 * Graph partitioning: the 2-D topology tiling (SV-C, following
 * GCNAX/SnF-style perfect tiling) and the multi-chip vertex
 * partitioner behind the sharded run path.
 *
 * A tile is a (dst-vertex range) x (src-vertex range) block of the
 * adjacency matrix. The view precomputes, per destination vertex,
 * where each source tile begins inside its sorted neighbour list, so
 * engines can walk tile edges without materializing sub-graphs.
 *
 * A chip shard is a contiguous destination-vertex range plus the
 * halo: the cross-chip in-neighbours whose features the chip must
 * receive over the interconnect each layer (Accel-GCN-style
 * workload-balanced sharding motivates the edge-balanced policy).
 */

#ifndef SGCN_GRAPH_PARTITION_HH
#define SGCN_GRAPH_PARTITION_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/csr_graph.hh"
#include "sim/error.hh"

namespace sgcn
{

/** Precomputed 2-D tile view over a CSR graph. */
class TiledGraphView
{
  public:
    /**
     * @param graph the topology
     * @param dst_tile_rows destination vertices per tile row;
     *        0 means a single tile spanning all vertices
     * @param src_tile_cols source vertices per tile column;
     *        0 means a single tile spanning all vertices
     */
    TiledGraphView(const CsrGraph &graph, VertexId dst_tile_rows,
                   VertexId src_tile_cols);

    unsigned numDstTiles() const { return dstTiles; }
    unsigned numSrcTiles() const { return srcTiles; }

    /** First dst vertex of tile row @p t. */
    VertexId dstTileBegin(unsigned t) const;

    /** One past the last dst vertex of tile row @p t. */
    VertexId dstTileEnd(unsigned t) const;

    /** Neighbours of @p v restricted to src tile @p c. */
    CsrGraph::NeighborRange tileNeighbors(VertexId v,
                                          unsigned c) const;

    /** Weights parallel to tileNeighbors(). */
    EdgeWeightRange tileWeights(VertexId v, unsigned c) const;

    /**
     * CSR edge index where tile @p c starts for vertex @p v. Served
     * from the precomputed per-vertex offset table when it fits the
     * budget, otherwise answered on demand by a binary search over
     * the vertex's sorted neighbour run — at 10^6 vertices the table
     * would cost n * (srcTiles + 1) * 8 bytes (gigabytes for small
     * src tiles), dwarfing the packed adjacency itself.
     */
    EdgeId edgeBegin(VertexId v, unsigned c) const
    {
        if (!tileOffsets.empty()) {
            return tileOffsets[static_cast<std::size_t>(v) *
                                   (srcTiles + 1) +
                               c];
        }
        return searchEdgeBegin(v, c);
    }

    /** The underlying graph. */
    const CsrGraph &graph() const { return topo; }

    /** Destination rows per tile. */
    VertexId dstRows() const { return dstSpan; }

    /** Source columns per tile. */
    VertexId srcCols() const { return srcSpan; }

    /** Host-memory footprint in bytes (artifact-cache accounting). */
    std::uint64_t
    footprintBytes() const
    {
        return sizeof(*this) + tileOffsets.size() * sizeof(EdgeId);
    }

  private:
    /** On-demand lower_bound over v's packed neighbour run. */
    EdgeId searchEdgeBegin(VertexId v, unsigned c) const;

    const CsrGraph &topo;
    VertexId dstSpan;
    VertexId srcSpan;
    unsigned dstTiles;
    unsigned srcTiles;
    /** (srcTiles+1) offsets per vertex into the CSR edge arrays;
     *  empty when the table exceeds the budget (see edgeBegin). */
    std::vector<EdgeId> tileOffsets;
};

/**
 * Pick the source-tile span (in vertices) whose expected feature
 * working set fits the cache, assuming the given expected bytes per
 * vertex slice. This is the offline, static estimate GCNAX-style
 * accelerators make (SV-C): when real sparsity is lower than
 * expected, the true working set exceeds the cache.
 */
VertexId chooseSrcTileSpan(std::uint64_t cache_bytes,
                           double expected_bytes_per_vertex,
                           VertexId num_vertices,
                           double cache_fill_factor = 0.95);

/** How the multi-chip partitioner places the cut points. */
enum class PartitionPolicy : std::uint8_t
{
    /** Equal contiguous vertex ranges (the 2-D tiling's dst split). */
    Contiguous,

    /** Cut at equal shares of the directed edge count (degree prefix
     *  sums), so skewed graphs balance per-chip aggregation work. */
    EdgeBalanced,
};

/** Human-readable policy name. */
constexpr const char *
partitionPolicyName(PartitionPolicy policy)
{
    switch (policy) {
      case PartitionPolicy::Contiguous:
        return "contiguous";
      case PartitionPolicy::EdgeBalanced:
        return "edge-balanced";
    }
    return "invalid";
}

/** Policy by CLI name ("contiguous"|"edge"); fatal on miss. */
PartitionPolicy partitionPolicyByName(const std::string &name);

/** Policy by CLI name; typed error on miss. */
Expected<PartitionPolicy>
tryPartitionPolicyByName(const std::string &name);

/**
 * One chip's share of a partitioned graph.
 *
 * The chip subgraph renumbers vertices: owned destinations occupy
 * [0, ownedRows()) in parent order, and the halo sources occupy
 * [ownedRows(), ownedRows() + haloRows()) in ascending parent order
 * as *empty* rows (they are aggregation sources only — the chip
 * receives their features but never aggregates into them). Edge
 * weights are copied verbatim from the parent so the chip sees the
 * exact global normalization.
 */
struct ChipShard
{
    /** Chip index within the partition. */
    unsigned chip = 0;

    /** Owned (destination) parent-vertex range [begin, end). */
    VertexId begin = 0;
    VertexId end = 0;

    /** Cross-chip in-neighbours, ascending parent ids. */
    std::vector<VertexId> halo;

    /** The renumbered chip subgraph (owned + empty halo rows). */
    std::shared_ptr<const CsrGraph> graph;

    /** Directed edges landing on this chip's owned rows. */
    EdgeId ownedEdges = 0;

    VertexId ownedRows() const { return end - begin; }

    VertexId
    haloRows() const
    {
        return static_cast<VertexId>(halo.size());
    }

    /** Chip-local row of parent vertex @p global (owned or halo);
     *  asserts the vertex is actually visible on this chip. */
    VertexId chipRowOf(VertexId global) const;
};

/**
 * A vertex partition of one graph over N chips: contiguous owned
 * ranges covering the parent disjointly, per-chip halo sets, and the
 * renumbered chip subgraphs. Immutable after construction; the
 * stream-artifact cache shares one instance per
 * (topology, chips, policy) across every personality of a sweep.
 */
class GraphPartition
{
  public:
    /**
     * Partition @p parent over @p chips. A one-chip partition has
     * identity renumbering and no halo, so its shard aliases
     * @p parent instead of copying it; wider partitions build their
     * renumbered subgraphs and do not retain @p parent.
     */
    GraphPartition(std::shared_ptr<const CsrGraph> parent,
                   unsigned chips, PartitionPolicy policy);

    unsigned
    numChips() const
    {
        return static_cast<unsigned>(chipShards.size());
    }

    PartitionPolicy policy() const { return cutPolicy; }

    const std::vector<ChipShard> &shards() const { return chipShards; }

    const ChipShard &shard(unsigned chip) const
    {
        return chipShards[chip];
    }

    /** Parent graph size. */
    VertexId numVertices() const { return parentVertices; }

    /** Content fingerprint of the parent topology. */
    std::pair<std::uint64_t, std::uint64_t>
    parentFingerprint() const
    {
        return {parentFpLo, parentFpHi};
    }

    /** Chip owning parent vertex @p global. */
    unsigned ownerOf(VertexId global) const;

    /** Total halo vertices summed over chips (the structural volume
     *  the interconnect must move each layer). */
    std::uint64_t totalHaloVertices() const;

    /** Largest per-chip owned edge count (the balance metric the
     *  edge-balanced policy minimizes). */
    EdgeId maxOwnedEdges() const;

    /** Host-memory footprint in bytes (artifact-cache accounting);
     *  a one-chip partition's aliased parent graph is not counted. */
    std::uint64_t footprintBytes() const;

  private:
    PartitionPolicy cutPolicy;
    VertexId parentVertices = 0;
    std::uint64_t parentFpLo = 0;
    std::uint64_t parentFpHi = 0;
    std::vector<ChipShard> chipShards;
};

} // namespace sgcn

#endif // SGCN_GRAPH_PARTITION_HH
