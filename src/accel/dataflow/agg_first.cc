#include "accel/dataflow/dataflow.hh"

#include <algorithm>

#include "accel/dataflow/row_product_common.hh"
#include "accel/timing/tile_control.hh"

namespace sgcn
{

void
aggFirstFast(EngineContext &ec, LayerResult &result)
{
    const VertexId n = ec.layer.graph->numVertices();
    const FeatureLayout &in = *ec.layer.inLayout;
    const FeatureLayout &out = *ec.layer.outLayout;

    const VertexId src_span =
        ec.cfg.topologyTiling ? ec.pickSrcSpan(in) : n;
    const VertexId dst_span = ec.pickDstSpan(in, ec.layer.inWidth);
    const auto view = ec.tiledView(dst_span, src_span);

    // EnGN's degree-aware vertex cache pins hot feature rows for the
    // whole layer (dense layout only).
    if (ec.cfg.davc && in.kind() == FormatKind::Dense)
        ec.pinDavc(AddressMap::kFeatureInBase, ec.layer.inWidth);

    std::vector<EngineContext::TilePhase> tiles;
    tiles.reserve(view->numDstTiles());

    for (unsigned t = 0; t < view->numDstTiles(); ++t) {
        const VertexId tile_begin = view->dstTileBegin(t);
        // Halo tail rows are empty sources: they sweep for free and
        // produce no output, so combination covers owned rows only.
        const VertexId tile_end =
            std::min(view->dstTileEnd(t), ec.ownedEnd());
        const VertexId rows =
            tile_end > tile_begin ? tile_end - tile_begin : 0;

        EngineContext::TilePhase phase;
        const EngineContext::Snapshot agg_before = ec.snapshot();
        const Cycle compute =
            sweepTileFast(ec, *view, t, in, TrafficClass::FeatureIn);
        phase.aggTime = ec.phaseCycles(compute, agg_before);

        // Combination: (rows x inWidth) . (inWidth x outWidth) on the
        // systolic arrays; residual init + ReLU + compression are
        // fused at the output (SV-E/SV-F), so the only extra traffic
        // is the S^l / S^{l+1} stream and the compressed X^{l+1}.
        const EngineContext::Snapshot comb_before = ec.snapshot();
        const GemmCost gemm = ec.systolic.gemm(
            rows, ec.layer.inWidth, ec.layer.outWidth,
            ec.cfg.zeroSkipCombination ? ec.layer.inSparsity : 0.0);
        ec.combMacs += gemm.macs;

        const std::uint64_t serialized_write_lines =
            streamTileOutputFast(ec, tile_begin, tile_end, out);
        phase.combTime = ec.phaseCycles(
            gemm.cycles / ec.cfg.combEngines, comb_before);
        phase.combTime +=
            serialized_write_lines * ec.cfg.dram.burstCycles;
        tiles.push_back(phase);
        result.aggCycles += phase.aggTime;
        result.combCycles += phase.combTime;
    }
    ec.cache.unpinAll();
    result.cycles = EngineContext::pipelineTiles(tiles);

    // Phase timeline under the tile pipeline: aggregation streams
    // from cycle 0, combination is paced to end with the layer, and
    // the drain is the final tile's fused output pass.
    const EngineContext::TilePhase sums =
        EngineContext::sumTilePhases(tiles);
    result.schedule.aggregation = {0, sums.aggTime};
    result.schedule.combination = {result.cycles - sums.combTime,
                                   result.cycles};
    result.schedule.outputDrain = {
        result.cycles - (tiles.empty() ? 0 : tiles.back().combTime),
        result.cycles};

    // Per-tile availability, synthesized from the analytic per-tile
    // costs: tile t consumes its input slice across the aggregation
    // span paced by its sweep cost, and its fused output pass
    // retires across the drain window paced by its output cost.
    // Aggregation gathers arbitrary source rows, so consumers of the
    // next layer cannot stream-gate on this layer's input side.
    std::vector<double> agg_weights, out_weights;
    agg_weights.reserve(tiles.size());
    out_weights.reserve(tiles.size());
    for (const EngineContext::TilePhase &phase : tiles) {
        agg_weights.push_back(static_cast<double>(phase.aggTime));
        out_weights.push_back(static_cast<double>(phase.combTime));
    }
    setRowProductTileSpans(
        result.schedule, result.schedule.aggregation,
        subdividePhase(result.schedule.aggregation, agg_weights),
        phaseEnds(subdividePhase(result.schedule.outputDrain,
                                 out_weights)));
    result.schedule.sequentialInput = false;
}

void
aggFirstTiming(EngineContext &ec, LayerResult &result)
{
    const VertexId n = ec.layer.graph->numVertices();
    const FeatureLayout &in = *ec.layer.inLayout;
    const FeatureLayout &out = *ec.layer.outLayout;

    const VertexId src_span =
        ec.cfg.topologyTiling ? ec.pickSrcSpan(in) : n;
    const VertexId dst_span = ec.pickDstSpan(in, ec.layer.inWidth);
    const auto view = ec.tiledView(dst_span, src_span);

    auto ctl = std::make_shared<TileControl>();
    ctl->numTiles = view->numDstTiles();
    ctl->combDone.assign(ctl->numTiles, 0);
    ctl->tileTraces.resize(ctl->numTiles);

    ctl->startTile = [&, ctl](unsigned t) {
        // Ping-pong psum buffers: aggregation of tile t may only
        // start once combination of tile t-2 has drained its buffer.
        const Cycle gate = t >= 2 ? ctl->combDone[t - 2] : 0;
        ec.events.schedule(std::max(ec.events.now(), gate),
                           [&, ctl, t] {
            const Cycle agg_start = ec.events.now();
            ctl->aggTrace.markStart(agg_start);
            ctl->tileTraces.markConsumeStart(t, agg_start);
            ctl->agg = std::make_shared<TimingAgg>(
                ec, *view, t, in, TrafficClass::FeatureIn);
            ctl->agg->start([&, ctl, view, t, agg_start] {
                result.aggCycles += ec.events.now() - agg_start;
                ctl->aggTrace.markEnd(ec.events.now());
                ctl->tileTraces.markConsumeEnd(t, ec.events.now());
                const VertexId tile_begin = view->dstTileBegin(t);
                const VertexId tile_end =
                    std::min(view->dstTileEnd(t), ec.ownedEnd());
                const VertexId rows =
                    tile_end > tile_begin ? tile_end - tile_begin : 0;
                const GemmCost gemm = ec.systolic.gemm(
                    rows, ec.layer.inWidth, ec.layer.outWidth,
                    ec.cfg.zeroSkipCombination ? ec.layer.inSparsity
                                               : 0.0);
                ec.combMacs += gemm.macs;
                const Cycle comb_cycles =
                    gemm.cycles / ec.cfg.combEngines;
                const Cycle comb_start =
                    std::max(ec.events.now(), ctl->combFreeAt);
                ctl->combFreeAt = comb_start + comb_cycles;
                ctl->combDone[t] = ctl->combFreeAt;
                result.combCycles += comb_cycles;
                ctl->combTrace.markStart(comb_start);
                ctl->combTrace.markEnd(ctl->combFreeAt);

                ec.events.schedule(ctl->combFreeAt,
                                   [&, ctl, t, tile_begin, tile_end] {
                    ctl->drainTrace.markStart(ec.events.now());
                    auto dma = std::make_shared<StreamDma>(ec, 128);
                    queueTileOutputDma(ec, *dma, tile_begin, tile_end,
                                       out);
                    dma->start([&, ctl, t] {
                        ctl->drainTrace.markEnd(ec.events.now());
                        ctl->tileTraces.markReady(t, ec.events.now());
                    });
                    ctl->dmas.push_back(std::move(dma));
                });

                if (t + 1 < ctl->numTiles)
                    ctl->startTile(t + 1);
            });
        });
    };
    const Cycle base = ec.layerBase;
    ctl->startTile(0);
    ec.events.run();
    const Cycle end = std::max(ec.events.now(), ctl->combFreeAt);
    result.cycles = end - base;
    result.schedule.aggregation = ctl->aggTrace.span(base);
    result.schedule.combination = ctl->combTrace.span(base);
    // The drain owns the layer's tail: the last event in the queue
    // is its final write-back (or the combination engine freeing).
    result.schedule.outputDrain =
        ctl->drainTrace.span(base, result.cycles);
    result.schedule.outputDrain.end = result.cycles;
    // Observed per-tile windows: consume = the tile's aggregation
    // sweep, ready = its output DMA draining (clamped monotone —
    // DMAs share the DRAM channels and may finish out of order).
    setRowProductTileSpans(result.schedule,
                           result.schedule.aggregation,
                           ctl->tileTraces.consumeSpans(base),
                           ctl->tileTraces.readyCycles(base));
    result.schedule.sequentialInput = false;
    ctl->release();
}

} // namespace sgcn
