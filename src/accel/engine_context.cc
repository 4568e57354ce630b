#include "accel/engine_context.hh"

#include <algorithm>

#include "accel/stream_artifacts.hh"

namespace sgcn
{

EngineContext::EngineContext(const AccelConfig &config,
                             const LayerContext &layer_ctx)
    : cfg(config), layer(layer_ctx), dram(config.dram, events),
      cache(config.cache, dram, events), systolic(config.systolic)
{
    if (cfg.dataflow == DataflowKind::ColumnProduct) {
        CacheConfig psum_config;
        psum_config.sizeBytes = cfg.psumBufferKb * 1024;
        psum_config.ways = 16;
        psumBuffer =
            std::make_unique<Cache>(psum_config, dram, events);
    }
}

EngineContext::~EngineContext() = default;

std::uint64_t
EngineContext::denseRowLines(std::uint32_t width) const
{
    return denseRowStride(width) / kCachelineBytes;
}

std::uint32_t
EngineContext::sampledEdges(std::uint32_t available) const
{
    if (layer.edgeSampleFraction >= 1.0 || available == 0)
        return available;
    const auto walk = static_cast<std::uint32_t>(
        layer.edgeSampleFraction * available + 0.5);
    return std::max<std::uint32_t>(1, std::min(walk, available));
}

VertexId
EngineContext::pickSrcSpan(const FeatureLayout &layout) const
{
    return chooseSrcTileSpan(cfg.cache.sizeBytes,
                             layout.staticSliceBytesEstimate(),
                             layer.graph->numVertices());
}

VertexId
EngineContext::pickDstSpan(const FeatureLayout &layout,
                           std::uint32_t full_width) const
{
    const std::uint32_t pass_cols =
        layout.supportsSlicing() ? layout.sliceWidth() : full_width;
    const auto psum_rows = static_cast<VertexId>(std::max<std::uint64_t>(
        64, cfg.aggPsumBudgetBytes /
                (static_cast<std::uint64_t>(pass_cols) * kFeatureBytes)));
    return std::min(
        {cfg.dstTileRows, layer.graph->numVertices(), psum_rows});
}

std::uint64_t
EngineContext::weightLines() const
{
    return divCeil(static_cast<std::uint64_t>(layer.inWidth) *
                       layer.outWidth * kFeatureBytes,
                   kCachelineBytes);
}

std::uint32_t
EngineContext::psumStripWidth() const
{
    return cfg.sliceC == 0 ? layer.outWidth
                           : std::min(cfg.sliceC, layer.outWidth);
}

EngineContext::Snapshot
EngineContext::snapshot() const
{
    Snapshot snap;
    snap.dramLines = offChipTraffic().totalLines();
    const CacheStats &stats = cache.stats();
    snap.cacheAccesses = stats.hits + stats.misses;
    if (psumBuffer) {
        const CacheStats &psum_stats = psumBuffer->stats();
        snap.psumAccesses = psum_stats.hits + psum_stats.misses;
    }
    return snap;
}

TrafficCounters
EngineContext::offChipTraffic() const
{
    TrafficCounters total = dram.traffic();
    total.merge(cache.functionalDramTraffic());
    if (psumBuffer)
        total.merge(psumBuffer->functionalDramTraffic());
    total.merge(fastStreamTraffic);
    return total;
}

Cycle
EngineContext::phaseCycles(Cycle compute, const Snapshot &before) const
{
    const Snapshot now_snap = snapshot();
    const std::uint64_t lines = now_snap.dramLines - before.dramLines;
    const std::uint64_t cache_acc =
        now_snap.cacheAccesses - before.cacheAccesses;
    const std::uint64_t psum_acc =
        now_snap.psumAccesses - before.psumAccesses;
    const Cycle dram_time =
        lines * cfg.dram.burstCycles / cfg.dram.channels;
    const Cycle cache_time = cache_acc / cfg.cacheLinesPerCycle;
    const Cycle psum_time = psum_acc / cfg.psumLinesPerCycle;
    return std::max({compute, dram_time, cache_time, psum_time});
}

void
EngineContext::streamDense(VertexId rows, std::uint32_t width, MemOp op,
                           TrafficClass cls)
{
    fastStreamTraffic.add(
        op, cls, static_cast<std::uint64_t>(rows) * denseRowLines(width));
}

void
EngineContext::streamPlan(const AccessPlan &plan, MemOp op,
                          TrafficClass cls)
{
    fastStreamTraffic.add(op, cls, plan.totalLines());
}

void
EngineContext::pinDavc(Addr base, std::uint32_t width)
{
    // Pin the hottest vertices' rows until the DAVC budget is spent.
    const auto budget_lines = static_cast<std::uint64_t>(
        cfg.davcCacheFraction *
        static_cast<double>(cfg.cache.sizeBytes) / kCachelineBytes);
    const std::uint64_t row_lines = denseRowLines(width);
    const std::uint64_t stride = denseRowStride(width);
    std::uint64_t pinned = 0;
    // Degree order is a per-topology sweep artifact: sorting once per
    // dataset instead of once per (config, layer) pin pass.
    const auto order =
        StreamArtifactCache::instance().degreeOrder(*layer.graph);
    for (VertexId v : *order) {
        if (pinned + row_lines > budget_lines)
            break;
        const Addr row_base = base + static_cast<Addr>(v) * stride;
        for (std::uint64_t l = 0; l < row_lines; ++l) {
            cache.pin(row_base + l * kCachelineBytes,
                      TrafficClass::FeatureIn);
        }
        pinned += row_lines;
    }
}

std::shared_ptr<const TiledGraphView>
EngineContext::tiledView(VertexId dst_span, VertexId src_span) const
{
    auto &artifacts = StreamArtifactCache::instance();
    // Hand-built fixtures may not carry a graph owner; canonicalize
    // on the fly so the cached view co-owns its topology either way.
    const std::shared_ptr<const CsrGraph> owner =
        layer.graphOwner ? layer.graphOwner
                         : artifacts.canonicalGraph(*layer.graph);
    return artifacts.tiledView(owner, dst_span, src_span);
}

EngineContext::TilePhase
EngineContext::sumTilePhases(const std::vector<TilePhase> &tiles)
{
    TilePhase sums;
    for (const TilePhase &tile : tiles) {
        sums.aggTime += tile.aggTime;
        sums.combTime += tile.combTime;
    }
    return sums;
}

Cycle
EngineContext::pipelineTiles(const std::vector<TilePhase> &tiles)
{
    if (tiles.empty())
        return 0;
    // Aggregation and combination overlap at block granularity: a
    // finished block of A.X rows streams into the systolic array
    // while the aggregators continue (SV-F). The slower phase sets
    // the pace; the pipeline fill is one sub-block of the first
    // tile (the psum buffers hold several blocks per tile).
    const TilePhase sums = sumTilePhases(tiles);
    constexpr unsigned kBlocksPerTile = 8;
    const Cycle fill = std::min(tiles.front().aggTime,
                                tiles.front().combTime) /
                       kBlocksPerTile;
    return std::max(sums.aggTime, sums.combTime) + fill;
}

} // namespace sgcn
