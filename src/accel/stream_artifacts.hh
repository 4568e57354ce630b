/**
 * @file
 * Process-wide cache of immutable sweep artifacts shared across
 * accelerator configs (the PR 6 tentpole).
 *
 * A full fig11/fig19 cross-product runs six personalities x many
 * datasets x two modes, and before this cache every config
 * regenerated near-identical per-layer state from scratch: the
 * deterministic feature masks (identical across all six personalities
 * by construction — maskSeed depends only on dataset and layer), the
 * format layouts prepared against them, the 2-D tile views over the
 * topology, the degree-sorted vertex order EnGN's DAVC pins from, and
 * the GraphSAGE edge-sampling fraction. All of these are pure
 * functions of (topology fingerprint, network, config-format
 * parameters), so they are computed once per sweep and handed out as
 * shared_ptr read-only handles — bit-identical to recomputation, and
 * shared across the runAll --jobs pool via KeyedCache's
 * mutex + shared_future compute-once discipline.
 *
 * Keys embed every input exactly (no hashing of mask parameters), so
 * artifacts from different reorderings, depths, widths, or sparsities
 * can never alias. Doubles enter keys through their bit patterns.
 */

#ifndef SGCN_ACCEL_STREAM_ARTIFACTS_HH
#define SGCN_ACCEL_STREAM_ARTIFACTS_HH

#include <bit>
#include <memory>
#include <tuple>
#include <vector>

#include "formats/format.hh"
#include "gcn/feature_matrix.hh"
#include "graph/csr_graph.hh"
#include "graph/partition.hh"
#include "sim/keyed_cache.hh"

namespace sgcn
{

/** Memo of immutable sweep artifacts; see file comment. */
class StreamArtifactCache
{
  public:
    /** Mask generator families (part of the mask identity). */
    enum class MaskKind : std::uint8_t
    {
        Random,
        OneHot,
        Full,

        /** Chip-local gather of a parent mask's rows (sharded runs).
         *  Identified by a digest of the parent key + partition
         *  identity in the sparsity/seed key slots. */
        ChipGather,
    };

    /** Exact mask identity: (kind, rows, cols, sparsity bits, seed). */
    using MaskKey = std::tuple<std::uint8_t, std::uint32_t,
                               std::uint32_t, std::uint64_t,
                               std::uint64_t>;

    /** A cached mask plus the key that identifies it (layout keys
     *  embed the mask key so a layout can never be served against
     *  the wrong mask). */
    struct MaskHandle
    {
        std::shared_ptr<const FeatureMask> mask;
        MaskKey key{};

        const FeatureMask &operator*() const { return *mask; }
        const FeatureMask *operator->() const { return mask.get(); }
        explicit operator bool() const
        {
            return static_cast<bool>(mask);
        }
    };

    /** The process-wide instance used by workload construction and
     *  the dataflow strategies. */
    static StreamArtifactCache &instance();

    /**
     * A shared, cache-owned copy of @p graph keyed by its content
     * fingerprint. All configs of a sweep resolve their dataset to
     * the same canonical instance, so graph-keyed artifacts (views,
     * degree orders) co-own one topology regardless of which Dataset
     * object each caller happened to load.
     */
    std::shared_ptr<const CsrGraph> canonicalGraph(const CsrGraph &graph);

    /** FeatureMask::random(rows, cols, sparsity, Rng(seed)). */
    MaskHandle randomMask(std::uint32_t rows, std::uint32_t cols,
                          double sparsity, std::uint64_t seed);

    /** FeatureMask::oneHot(rows, cols, Rng(seed)). */
    MaskHandle oneHotMask(std::uint32_t rows, std::uint32_t cols,
                          std::uint64_t seed);

    /** FeatureMask::full(rows, cols). */
    MaskHandle fullMask(std::uint32_t rows, std::uint32_t cols);

    /**
     * A layout of @p format prepared against @p mask at @p base with
     * the given expected density, constructed via core makeLayout on
     * first use. The returned handle co-owns the mask the layout is
     * bound to (FeatureLayout::prepare keeps a raw pointer), so it
     * stays valid for as long as any run holds it.
     */
    std::shared_ptr<const FeatureLayout>
    preparedLayout(FormatKind format, std::uint32_t width,
                   std::uint32_t slice_width, double expected_density,
                   Addr base, const MaskHandle &mask);

    /**
     * The (dst_span x src_span) tile view of @p graph. The handle
     * co-owns the graph (TiledGraphView keeps a reference), so pass
     * the canonical/reordered shared handle, not a stack copy.
     */
    std::shared_ptr<const TiledGraphView>
    tiledView(const std::shared_ptr<const CsrGraph> &graph,
              VertexId dst_span, VertexId src_span);

    /**
     * The @p chips-way partition of @p graph under @p policy,
     * computed once per (topology, chips, policy) per sweep and
     * shared across every personality and chip engine. A one-chip
     * partition's shard is canonicalGraph(@p graph).
     */
    std::shared_ptr<const GraphPartition>
    partition(const CsrGraph &graph, unsigned chips,
              PartitionPolicy policy);

    /**
     * The chip-local slice of @p parent for @p chip of
     * @p partition: rows [0, ownedRows) copy the chip's owned parent
     * rows, and — when @p include_halo — rows
     * [ownedRows, ownedRows + haloRows) copy the halo sources'
     * parent rows (otherwise they stay all-zero, the shape of a chip
     * *output* mask). The handle's key digests the parent key and
     * the partition identity, so chip layouts prepared against it
     * never alias global ones. A shard owning the whole graph (one
     * chip, no halo) gets @p parent itself back.
     */
    MaskHandle chipMask(const MaskHandle &parent,
                        const GraphPartition &partition, unsigned chip,
                        bool include_halo);

    /** Vertices of @p graph sorted by descending degree (EnGN DAVC
     *  pin order), computed once per topology per sweep. */
    std::shared_ptr<const std::vector<VertexId>>
    degreeOrder(const CsrGraph &graph);

    /** GraphSAGE sampled-edge fraction of @p graph at @p fanout.
     *  seed == 0 is the analytic expectation,
     *  sum(min(degree, fanout)) / numEdges, an O(V) pass; a nonzero
     *  @p seed draws fanout neighbours with replacement per
     *  high-degree vertex and counts the distinct picks, so two
     *  configs with different sampling seeds get (and cache)
     *  different fractions. Memoized per (topology, fanout, seed). */
    double sageEdgeFraction(const CsrGraph &graph, unsigned fanout,
                            std::uint64_t seed = 0);

    /** Merged counters over every artifact family. */
    ArtifactStats stats() const;

    /** Byte-accounted host footprint of all resident artifacts. */
    std::uint64_t footprintBytes() const { return stats().bytes; }

    /** Drop every artifact and reset the counters. Outstanding
     *  handles stay valid (shared_ptr); later lookups recompute. */
    void clear();

  private:
    /** A layout plus the mask its boundMask pointer refers to. */
    struct PreparedLayout
    {
        std::shared_ptr<const FeatureMask> mask;
        std::unique_ptr<FeatureLayout> layout;
    };

    /** A tile view plus the graph its topo reference refers to. */
    struct TiledView
    {
        TiledView(std::shared_ptr<const CsrGraph> graph_owner,
                  VertexId dst_span, VertexId src_span)
            : owner(std::move(graph_owner)),
              view(*owner, dst_span, src_span)
        {
        }

        std::shared_ptr<const CsrGraph> owner;
        TiledGraphView view;
    };

    using GraphKey = std::tuple<std::uint64_t, std::uint64_t>;
    using LayoutKey =
        std::tuple<std::uint8_t, std::uint32_t, std::uint32_t,
                   std::uint64_t, Addr, MaskKey>;
    using ViewKey = std::tuple<std::uint64_t, std::uint64_t, VertexId,
                               VertexId>;
    using SageKey = std::tuple<std::uint64_t, std::uint64_t, unsigned,
                               std::uint64_t>;
    using PartitionKey = std::tuple<std::uint64_t, std::uint64_t,
                                    unsigned, std::uint8_t>;

    MaskHandle maskFor(const MaskKey &key);

    KeyedCache<GraphKey, CsrGraph> graphs;
    KeyedCache<MaskKey, FeatureMask> masks;
    KeyedCache<LayoutKey, PreparedLayout> layouts;
    KeyedCache<ViewKey, TiledView> views;
    KeyedCache<GraphKey, std::vector<VertexId>> degreeOrders;
    KeyedCache<SageKey, double> sageFractions;
    KeyedCache<PartitionKey, GraphPartition> partitions;
};

} // namespace sgcn

#endif // SGCN_ACCEL_STREAM_ARTIFACTS_HH
