#include "accel/workload.hh"

#include "accel/stream_artifacts.hh"
#include "gcn/sparsity_model.hh"
#include "sim/logging.hh"

namespace sgcn
{

std::uint64_t
maskSeed(const DatasetSpec &spec, unsigned arch_layer)
{
    std::uint64_t h = 0xfea7u;
    for (const char *p = spec.abbrev; *p; ++p)
        h = Rng::splitMix64(h) ^ static_cast<std::uint64_t>(*p);
    h ^= static_cast<std::uint64_t>(arch_layer) * 0x9e3779b9ULL;
    return Rng::splitMix64(h);
}

namespace
{

/** The dataflow-independent parts of a context on @p chip. All
 *  heavy state resolves through the stream-artifact cache (the shard
 *  graph itself is a shared partition artifact), so the six
 *  personalities of a sweep share one copy per dataset. */
LayerContext
chipContext(const GraphPartition &partition, unsigned chip,
            const NetworkSpec &net)
{
    const ChipShard &shard = partition.shard(chip);
    LayerContext ctx;
    ctx.graphOwner = shard.graph;
    ctx.graph = ctx.graphOwner.get();
    ctx.residual = net.residual;
    ctx.edgeBytes = net.edgeBytes();
    ctx.ownedRows = shard.ownedRows();
    if (net.agg == AggKind::Sage) {
        // GraphSAGE samples up to sageFanout neighbours per vertex;
        // the fraction of edges actually walked shrinks accordingly.
        ctx.edgeSampleFraction =
            StreamArtifactCache::instance().sageEdgeFraction(
                *ctx.graph, net.sageFanout, net.sageSeed);
    }
    return ctx;
}

/** Slice the global layer masks (every chip and every personality
 *  share one copy) to @p chip's rows — the input covers owned + halo
 *  rows, the output owned rows only (the tail stays zero: the chip
 *  never writes halo outputs) — and prepare the layouts over them. */
void
bindFeatures(LayerContext &ctx, const GraphPartition &partition,
             unsigned chip, const StreamArtifactCache::MaskHandle &in,
             const StreamArtifactCache::MaskHandle &out,
             FormatKind in_format, const AccelConfig &config,
             double expected_density)
{
    auto &artifacts = StreamArtifactCache::instance();
    const auto in_mask =
        artifacts.chipMask(in, partition, chip, /*include_halo=*/true);
    const auto out_mask =
        artifacts.chipMask(out, partition, chip, /*include_halo=*/false);
    ctx.inMask = in_mask.mask;
    ctx.outMask = out_mask.mask;
    ctx.inLayout = artifacts.preparedLayout(
        in_format, ctx.inWidth, config.sliceC, expected_density,
        AddressMap::kFeatureInBase, in_mask);
    ctx.outLayout = artifacts.preparedLayout(
        config.format, ctx.outWidth, config.sliceC, expected_density,
        AddressMap::kFeatureOutBase, out_mask);
}

/** The one-chip partition of @p graph: its shard is the canonical
 *  graph and its chip masks are the global masks. Keyed under the
 *  runner's default policy, so default runs share the entry. */
std::shared_ptr<const GraphPartition>
wholeGraph(const CsrGraph &graph)
{
    return StreamArtifactCache::instance().partition(
        graph, 1, PartitionPolicy::EdgeBalanced);
}

} // namespace

LayerContext
makeIntermediateLayer(const Dataset &dataset, const CsrGraph &graph,
                      const AccelConfig &config, const NetworkSpec &net,
                      unsigned arch_layer)
{
    return makeChipIntermediateLayer(dataset, *wholeGraph(graph), 0,
                                     config, net, arch_layer);
}

LayerContext
makeInputLayer(const Dataset &dataset, const CsrGraph &graph,
               const AccelConfig &config, const NetworkSpec &net)
{
    return makeChipInputLayer(dataset, *wholeGraph(graph), 0, config,
                              net);
}

LayerContext
makeChipIntermediateLayer(const Dataset &dataset,
                          const GraphPartition &partition,
                          unsigned chip, const AccelConfig &config,
                          const NetworkSpec &net, unsigned arch_layer)
{
    SGCN_ASSERT(arch_layer >= 1 && arch_layer < net.layers,
                "intermediate layer index out of range: ", arch_layer);
    LayerContext ctx = chipContext(partition, chip, net);
    ctx.isInputLayer = false;
    ctx.inWidth = net.hidden;
    ctx.outWidth = net.hidden;
    ctx.inSparsity = modeledLayerSparsity(dataset.spec, arch_layer,
                                          net.layers, net.residual);
    const unsigned out_layer = std::min(arch_layer + 1, net.layers);
    ctx.outSparsity = modeledLayerSparsity(dataset.spec, out_layer,
                                           net.layers, net.residual);

    auto &artifacts = StreamArtifactCache::instance();
    const VertexId n = partition.numVertices();
    const auto in_global = artifacts.randomMask(
        n, ctx.inWidth, ctx.inSparsity,
        maskSeed(dataset.spec, arch_layer));
    const auto out_global = artifacts.randomMask(
        n, ctx.outWidth, ctx.outSparsity,
        maskSeed(dataset.spec, arch_layer + 1));
    // Offline tile sizing assumes the trained network's *average*
    // sparsity (SV-C); denser-than-average layers overflow, which is
    // the working-set variability SAC absorbs.
    const double expected_density =
        1.0 - modeledAvgSparsity(dataset.spec, net.layers,
                                 net.residual);
    bindFeatures(ctx, partition, chip, in_global, out_global,
                 config.format, config, expected_density);
    return ctx;
}

LayerContext
makeChipInputLayer(const Dataset &dataset,
                   const GraphPartition &partition, unsigned chip,
                   const AccelConfig &config, const NetworkSpec &net)
{
    LayerContext ctx = chipContext(partition, chip, net);
    ctx.isInputLayer = true;
    ctx.inWidth = dataset.inputWidth;
    ctx.outWidth = net.hidden;
    ctx.inSparsity = dataset.spec.inputSparsity;
    ctx.outSparsity = modeledLayerSparsity(dataset.spec, 1, net.layers,
                                           net.residual);

    auto &artifacts = StreamArtifactCache::instance();
    const VertexId n = partition.numVertices();
    StreamArtifactCache::MaskHandle in_global;
    if (dataset.spec.oneHotInput) {
        in_global = artifacts.oneHotMask(n, ctx.inWidth,
                                         maskSeed(dataset.spec, 0));
        ctx.inSparsity = in_global->sparsity();
    } else {
        in_global = artifacts.randomMask(n, ctx.inWidth,
                                         ctx.inSparsity,
                                         maskSeed(dataset.spec, 0));
    }
    const auto out_global = artifacts.randomMask(
        n, ctx.outWidth, ctx.outSparsity, maskSeed(dataset.spec, 1));
    // Input features ship dense; SGCN may read them through CSR when
    // they are ultra-sparse (SVII-B). The decision keys on the
    // *global* input sparsity, so every chip agrees on the layout
    // kind. The output is always the personality's intermediate
    // format. Input layouts keep the default expected density (no
    // offline estimate exists for X^0).
    const bool sparse_input =
        config.firstLayerSparseInput && ctx.inSparsity > 0.90;
    bindFeatures(ctx, partition, chip, in_global, out_global,
                 sparse_input ? FormatKind::Csr : FormatKind::Dense,
                 config, 0.5);
    return ctx;
}

} // namespace sgcn
