/**
 * @file
 * Per-layer workload construction: feature masks at the modeled
 * sparsity, format layouts bound to them, and the layer's position
 * in the address map.
 *
 * All accelerators simulating the same (dataset, layer) see
 * bit-identical masks, so comparisons isolate architectural
 * differences.
 */

#ifndef SGCN_ACCEL_WORKLOAD_HH
#define SGCN_ACCEL_WORKLOAD_HH

#include <memory>

#include "accel/config.hh"
#include "gcn/feature_matrix.hh"
#include "gcn/spec.hh"
#include "graph/datasets.hh"
#include "graph/partition.hh"

namespace sgcn
{

/** Address-map bases (single-address-space accelerator). */
struct AddressMap
{
    static constexpr Addr kTopologyBase = 0x0000'0000ULL;
    static constexpr Addr kFeatureInBase = 0x4000'0000ULL;
    static constexpr Addr kFeatureOutBase = 0x8000'0000ULL;
    static constexpr Addr kResidualBase = 0xC000'0000ULL;
    static constexpr Addr kPsumBase = 0xE000'0000ULL;
    static constexpr Addr kWeightBase = 0xF000'0000ULL;
};

/** Everything a layer simulation needs. */
struct LayerContext
{
    /** The (possibly reordered) topology: the canonical shared
     *  instance from the stream-artifact cache. */
    const CsrGraph *graph = nullptr;

    /** Co-owner of *graph (null only for hand-built fixtures). */
    std::shared_ptr<const CsrGraph> graphOwner;

    /** Input feature width (differs on the input layer). */
    std::uint32_t inWidth = 0;

    /** Output feature width (the network's hidden width). */
    std::uint32_t outWidth = 0;

    /** Non-zero structure of X^l (shared sweep artifact: identical
     *  across every personality simulating this dataset layer). */
    std::shared_ptr<const FeatureMask> inMask;

    /** Non-zero structure of X^{l+1} (drives output writes). */
    std::shared_ptr<const FeatureMask> outMask;

    /** Layout of X^l, prepared at kFeatureInBase; co-owns inMask. */
    std::shared_ptr<const FeatureLayout> inLayout;

    /** Layout of X^{l+1}, prepared at kFeatureOutBase. */
    std::shared_ptr<const FeatureLayout> outLayout;

    /** Sparsity used to generate inMask / outMask. */
    double inSparsity = 0.0;
    double outSparsity = 0.0;

    /** True for the first (dataset-input) layer. */
    bool isInputLayer = false;

    /** Residual streams S^l / S^{l+1} present (Eq. 2). */
    bool residual = true;

    /** Bytes per topology edge (GIN drops the weight). */
    unsigned edgeBytes = 8;

    /** Effective average degree multiplier (GraphSAGE sampling
     *  reduces the edges actually walked). */
    double edgeSampleFraction = 1.0;

    /** Rows this engine owns the *output* of: the first ownedRows
     *  rows of the chip shard are owned destinations and the tail
     *  rows are halo sources the chip reads but never writes —
     *  output-side streams (drain, residual, combination of
     *  aggregated rows) clamp to this. A one-chip shard owns every
     *  row; 0 (hand-built fixtures) also means every row. */
    VertexId ownedRows = 0;
};

/**
 * Build the context of one intermediate layer over the whole graph:
 * makeChipIntermediateLayer on the one-chip partition of @p graph.
 *
 * @param dataset the instantiated dataset (graph may be reordered
 *        by the caller for I-GCN)
 * @param config accelerator personality (chooses formats)
 * @param net network architecture
 * @param arch_layer 1-based index of the intermediate feature matrix
 *        X^l within the architectural network (1..layers-1)
 */
LayerContext makeIntermediateLayer(const Dataset &dataset,
                                   const CsrGraph &graph,
                                   const AccelConfig &config,
                                   const NetworkSpec &net,
                                   unsigned arch_layer);

/** Build the input-layer context (X^0: dataset features) over the
 *  whole graph: makeChipInputLayer on the one-chip partition. */
LayerContext makeInputLayer(const Dataset &dataset,
                            const CsrGraph &graph,
                            const AccelConfig &config,
                            const NetworkSpec &net);

/**
 * The context of one intermediate layer on @p chip of @p partition
 * (every run is a partition; one chip is the whole graph): the
 * shard's renumbered subgraph, the *global* layer masks sliced to
 * (owned + halo) rows bit-exactly, and ownedRows set so output-side
 * streams stop at the chip boundary. Masks and layouts resolve
 * through the stream-artifact cache, so chips sharing a boundary
 * never regenerate the global masks.
 */
LayerContext makeChipIntermediateLayer(const Dataset &dataset,
                                       const GraphPartition &partition,
                                       unsigned chip,
                                       const AccelConfig &config,
                                       const NetworkSpec &net,
                                       unsigned arch_layer);

/** The input-layer context on @p chip of @p partition. */
LayerContext makeChipInputLayer(const Dataset &dataset,
                                const GraphPartition &partition,
                                unsigned chip,
                                const AccelConfig &config,
                                const NetworkSpec &net);

/** Deterministic mask seed shared by all accelerators. */
std::uint64_t maskSeed(const DatasetSpec &spec, unsigned arch_layer);

} // namespace sgcn

#endif // SGCN_ACCEL_WORKLOAD_HH
