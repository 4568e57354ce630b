#include "accel/dataflow/dataflow.hh"

#include <algorithm>

#include "accel/dataflow/row_product_common.hh"
#include "accel/stream_artifacts.hh"
#include "accel/timing/tile_control.hh"

namespace sgcn
{

namespace
{

/** Zero-skip the streaming GEMM when the ultra-sparse input-layer
 *  combination runs on the sparse aggregator (SVII-B). */
bool
skipSparseInput(const EngineContext &ec)
{
    return ec.layer.isInputLayer && ec.layer.inSparsity > 0.90 &&
           ec.cfg.firstLayerSparseInput;
}

} // namespace

void
combFirstFast(EngineContext &ec, LayerResult &result)
{
    const VertexId n = ec.layer.graph->numVertices();
    const FeatureLayout &in = *ec.layer.inLayout;
    const FeatureLayout &out = *ec.layer.outLayout;

    // Phase 1: combination as a streaming pass. X^l rows stream in,
    // X^l . W^l rows stream out to the psum region. The row reads
    // only feed the stream-traffic counters (no cache model), so the
    // per-row plans collapse to one line total.
    const EngineContext::Snapshot comb_before = ec.snapshot();
    ec.fastStreamTraffic.add(MemOp::Read, TrafficClass::FeatureIn,
                             in.totalRowReadLines());
    ec.streamDense(n, ec.layer.outWidth, MemOp::Write,
                   TrafficClass::PartialSum);
    const GemmCost gemm = ec.systolic.gemm(
        n, ec.layer.inWidth, ec.layer.outWidth,
        (ec.cfg.zeroSkipCombination || skipSparseInput(ec))
            ? ec.layer.inSparsity
            : 0.0);
    ec.combMacs += gemm.macs;
    const Cycle comb_time =
        ec.phaseCycles(gemm.cycles / ec.cfg.combEngines, comb_before);
    result.combCycles += comb_time;

    // Phase 2: aggregation over the dense X.W matrix, then the
    // output pass (residual add + activation + write). The full mask
    // and the dense psum-region layout are config-independent sweep
    // artifacts (every comb-first personality aggregates the same
    // X.W shape).
    auto &artifacts = StreamArtifactCache::instance();
    const auto full = artifacts.fullMask(n, ec.layer.outWidth);
    const auto xw = artifacts.preparedLayout(
        FormatKind::Dense, ec.layer.outWidth, ec.cfg.sliceC, 0.5,
        AddressMap::kPsumBase, full);

    if (ec.cfg.davc)
        ec.pinDavc(AddressMap::kPsumBase, ec.layer.outWidth);

    const VertexId src_span =
        ec.cfg.topologyTiling ? ec.pickSrcSpan(*xw) : n;
    const VertexId dst_span = ec.pickDstSpan(*xw, ec.layer.outWidth);
    const auto view = ec.tiledView(dst_span, src_span);

    std::vector<EngineContext::TilePhase> tiles;
    std::vector<double> row_weights;
    tiles.reserve(view->numDstTiles());
    row_weights.reserve(view->numDstTiles());
    for (unsigned t = 0; t < view->numDstTiles(); ++t) {
        const VertexId tile_begin = view->dstTileBegin(t);
        const VertexId tile_end = view->dstTileEnd(t);
        row_weights.push_back(
            static_cast<double>(tile_end - tile_begin));

        EngineContext::TilePhase phase;
        const EngineContext::Snapshot agg_before = ec.snapshot();
        const Cycle compute =
            sweepTileFast(ec, *view, t, *xw, TrafficClass::FeatureIn);
        phase.aggTime = ec.phaseCycles(compute, agg_before);

        const EngineContext::Snapshot out_before = ec.snapshot();
        const std::uint64_t serialized_write_lines =
            streamTileOutputFast(ec, tile_begin, tile_end, out);
        phase.combTime = ec.phaseCycles(0, out_before);
        phase.combTime +=
            serialized_write_lines * ec.cfg.dram.burstCycles;
        tiles.push_back(phase);
        result.aggCycles += phase.aggTime;
        result.combCycles += phase.combTime;
    }

    ec.cache.unpinAll();
    result.cycles = comb_time + EngineContext::pipelineTiles(tiles);

    // Phase timeline: the streaming combination runs first, the
    // tiled aggregation follows, and the drain is the final tile's
    // output pass (paced to end with the layer).
    const Cycle agg_total =
        EngineContext::sumTilePhases(tiles).aggTime;
    result.schedule.combination = {0, comb_time};
    result.schedule.aggregation = {comb_time, comb_time + agg_total};
    result.schedule.outputDrain = {
        result.cycles - (tiles.empty() ? 0 : tiles.back().combTime),
        result.cycles};

    // Per-tile availability: X^l is consumed once, in row order, by
    // the phase-1 streaming combination, so tile t's input slice is
    // read across a row-proportional slice of the combination span;
    // its output pass retires across the drain window. Row-order
    // input consumption is what lets a per-tile pipeline start this
    // dataflow before its producer has drained every tile.
    std::vector<double> out_weights;
    out_weights.reserve(tiles.size());
    for (const EngineContext::TilePhase &phase : tiles)
        out_weights.push_back(static_cast<double>(phase.combTime));
    setRowProductTileSpans(
        result.schedule, result.schedule.combination,
        subdividePhase(result.schedule.combination, row_weights),
        phaseEnds(subdividePhase(result.schedule.outputDrain,
                                 out_weights)));
    result.schedule.sequentialInput = true;
}

void
combFirstTiming(EngineContext &ec, LayerResult &result)
{
    const VertexId n = ec.layer.graph->numVertices();
    const FeatureLayout &in = *ec.layer.inLayout;
    const FeatureLayout &out = *ec.layer.outLayout;

    // Phase 1: streaming combination.
    auto phase1 = std::make_shared<StreamDma>(ec, 128);
    for (VertexId v = 0; v < n; ++v) {
        phase1->addPlan(in.planRowRead(v), MemOp::Read,
                        TrafficClass::FeatureIn);
    }
    phase1->addRegion(AddressMap::kPsumBase,
                      static_cast<std::uint64_t>(n) *
                          ec.denseRowLines(ec.layer.outWidth),
                      MemOp::Write, TrafficClass::PartialSum);

    const GemmCost gemm = ec.systolic.gemm(
        n, ec.layer.inWidth, ec.layer.outWidth,
        (ec.cfg.zeroSkipCombination || skipSparseInput(ec))
            ? ec.layer.inSparsity
            : 0.0);
    ec.combMacs += gemm.macs;
    const Cycle comb_compute = gemm.cycles / ec.cfg.combEngines;

    // Phase 2 state, shared with the continuation callbacks: the
    // same full-mask/psum-layout/view artifacts the fast path uses.
    auto &artifacts = StreamArtifactCache::instance();
    const auto xw_mask = artifacts.fullMask(n, ec.layer.outWidth);
    const auto xw = artifacts.preparedLayout(
        FormatKind::Dense, ec.layer.outWidth, ec.cfg.sliceC, 0.5,
        AddressMap::kPsumBase, xw_mask);

    const VertexId src_span =
        ec.cfg.topologyTiling ? ec.pickSrcSpan(*xw) : n;
    const VertexId dst_span = ec.pickDstSpan(*xw, ec.layer.outWidth);
    const auto view = ec.tiledView(dst_span, src_span);

    auto ctl = std::make_shared<TileControl>();
    ctl->numTiles = view->numDstTiles();
    ctl->tileTraces.resize(ctl->numTiles);

    ctl->startTile = [&, ctl, view, xw](unsigned t) {
        const Cycle agg_start = ec.events.now();
        ctl->aggTrace.markStart(agg_start);
        ctl->agg = std::make_shared<TimingAgg>(
            ec, *view, t, *xw, TrafficClass::FeatureIn);
        ctl->agg->start([&, ctl, view, xw, t, agg_start] {
            result.aggCycles += ec.events.now() - agg_start;
            ctl->aggTrace.markEnd(ec.events.now());
            const VertexId tile_begin = view->dstTileBegin(t);
            const VertexId tile_end = view->dstTileEnd(t);
            ctl->drainTrace.markStart(ec.events.now());
            auto dma = std::make_shared<StreamDma>(ec, 128);
            queueTileOutputDma(ec, *dma, tile_begin, tile_end, out);
            dma->start([&, ctl, t] {
                ctl->drainTrace.markEnd(ec.events.now());
                ctl->tileTraces.markReady(t, ec.events.now());
            });
            ctl->dmas.push_back(std::move(dma));
            if (t + 1 < ctl->numTiles)
                ctl->startTile(t + 1);
        });
    };

    // Phase 1 starts at the layer base, not at engine construction:
    // with layers chained on one timeline the two are no longer the
    // same cycle (ROADMAP phase1/DMA accounting audit).
    const Cycle phase1_start = ec.layerBase;
    phase1->start([&, ctl, phase1_start, comb_compute] {
        const Cycle ready =
            std::max(ec.events.now(), phase1_start + comb_compute);
        result.combCycles += ready - phase1_start;
        ctl->combTrace.markStart(phase1_start);
        ctl->combTrace.markEnd(ready);
        ec.events.schedule(ready, [&, ctl] {
            if (ec.cfg.davc)
                ec.pinDavc(AddressMap::kPsumBase, ec.layer.outWidth);
            ctl->startTile(0);
        });
    });
    ctl->dmas.push_back(phase1);
    ec.events.run();
    ec.cache.unpinAll();
    result.cycles = ec.events.now() - ec.layerBase;
    result.schedule.combination = ctl->combTrace.span(ec.layerBase);
    result.schedule.aggregation = ctl->aggTrace.span(ec.layerBase);
    result.schedule.outputDrain =
        ctl->drainTrace.span(ec.layerBase, result.cycles);
    result.schedule.outputDrain.end = result.cycles;
    // Per-tile availability: input consumption is the phase-1 stream
    // (row order, subdivided row-proportionally across the observed
    // combination span); output readiness is each tile's observed
    // drain-DMA completion.
    std::vector<double> row_weights;
    row_weights.reserve(ctl->numTiles);
    for (unsigned t = 0; t < ctl->numTiles; ++t) {
        row_weights.push_back(static_cast<double>(
            view->dstTileEnd(t) - view->dstTileBegin(t)));
    }
    setRowProductTileSpans(
        result.schedule, result.schedule.combination,
        subdividePhase(result.schedule.combination, row_weights),
        ctl->tileTraces.readyCycles(ec.layerBase));
    result.schedule.sequentialInput = true;
    ctl->release();
}

} // namespace sgcn
