#include "accel/dataflow/dataflow.hh"

#include <algorithm>
#include <memory>

#include "accel/timing/stream_dma.hh"
#include "accel/timing/timing_psum.hh"
#include "sim/logging.hh"

namespace sgcn
{

namespace
{

/** Synthesis granularity of the column-product tile spans: the
 *  dataflow has no destination tiles, but its input stream and its
 *  X^{l+1} write-out are both row-ordered, so both sides of the
 *  per-tile pipeline gate are well-defined at any granularity. */
constexpr unsigned kColumnProductTileSpans = 8;

/**
 * Column-product per-tile availability, shared by both execution
 * modes: strip 0's pass over X^l covers the input once in row order
 * across 1/strips of the combination span (later strips re-read
 * rows that are necessarily older), and the activated X^{l+1}
 * streams out in row order across the drain window after the
 * accumulator-bank flush.
 */
void
synthesizeColumnProductSpans(LayerSchedule &schedule, unsigned strips)
{
    const PhaseSpan comb = schedule.combination;
    const PhaseSpan first_pass{
        comb.start,
        comb.start + comb.duration() / std::max(1u, strips)};
    const std::vector<double> uniform(kColumnProductTileSpans, 1.0);
    schedule.setTileSpans(
        subdividePhase(first_pass, uniform),
        phaseEnds(subdividePhase(schedule.outputDrain, uniform)));
    schedule.sequentialInput = true;
}

} // namespace

void
columnProductFast(EngineContext &ec, LayerResult &result)
{
    const CsrGraph &graph = *ec.layer.graph;
    const VertexId n = graph.numVertices();
    const FeatureLayout &in = *ec.layer.inLayout;
    const FeatureLayout &out = *ec.layer.outLayout;

    // Combination: input feature rows stream in source order with
    // zero-skipping in the datapath (AWB-GCN); one X pass per
    // partial-sum strip, recomputing that strip of X.W on the fly.
    // The row reads only feed the stream-traffic counters, so the
    // per-strip row loops collapse to strips x the memoized total.
    const std::uint32_t strip_width = ec.psumStripWidth();
    const unsigned strips = static_cast<unsigned>(
        divCeil(ec.layer.outWidth, strip_width));
    const EngineContext::Snapshot comb_before = ec.snapshot();
    ec.fastStreamTraffic.add(MemOp::Read, TrafficClass::FeatureIn,
                             static_cast<std::uint64_t>(strips) *
                                 in.totalRowReadLines());
    const GemmCost gemm = ec.systolic.gemm(
        n, ec.layer.inWidth, ec.layer.outWidth,
        ec.cfg.zeroSkipCombination ? ec.layer.inSparsity : 0.0);
    ec.combMacs += gemm.macs;
    const Cycle comb_time =
        ec.phaseCycles(gemm.cycles / ec.cfg.combEngines, comb_before);
    result.combCycles += comb_time;

    // Residual initialization of the partial sums (owned rows only:
    // chip shards never accumulate outputs for their halo tail).
    const VertexId owned = ec.ownedEnd();
    const EngineContext::Snapshot agg_before = ec.snapshot();
    if (ec.layer.residual && !ec.layer.isInputLayer) {
        ec.streamDense(owned, ec.layer.outWidth, MemOp::Read,
                       TrafficClass::FeatureIn);
    }

    // Aggregation: column product in feature-dimension strips (the
    // distributed accumulator banks of the real design). Within a
    // strip, source vertices stream in order and every out-edge
    // read-modify-writes the destination's partial-sum strip — the
    // dominating traffic of Fig. 14. The strip keeps a community's
    // psum working set cacheable; the price is re-walking the
    // topology once per strip.
    const std::uint64_t psum_stride = denseRowStride(ec.layer.outWidth);
    std::vector<Cycle> engine_cycles(ec.cfg.aggEngines, 0);

    // Resolve each source vertex's neighbour run and its sampled
    // destination picks once, then replay the pick stream for every
    // strip: the walk depends only on the topology, not the strip.
    // The topology stream only feeds counters, so it collapses to
    // one total per pass.
    auto &entries = ec.sweepEntries;
    auto &picks = ec.sweepPicks;
    entries.clear();
    picks.clear();
    std::uint64_t topo_lines_per_pass = 0;
    for (VertexId u = 0; u < n; ++u) {
        const auto nbrs = graph.neighbors(u);
        if (nbrs.empty())
            continue;
        EngineContext::SweepEntry entry;
        entry.engine = static_cast<unsigned>(u % ec.cfg.aggEngines);
        entry.edgeBegin = graph.rowPointers()[u];
        entry.walk = ec.sampledEdges(
            static_cast<std::uint32_t>(nbrs.size()));
        entry.pickBegin = picks.size();
        AccessPlan topo;
        topo.addBytes(AddressMap::kTopologyBase +
                          entry.edgeBegin * ec.layer.edgeBytes,
                      static_cast<std::uint64_t>(entry.walk) *
                          ec.layer.edgeBytes);
        topo_lines_per_pass += topo.totalLines();
        const double stride_f =
            static_cast<double>(nbrs.size()) / entry.walk;
        for (std::uint32_t j = 0; j < entry.walk; ++j) {
            const auto pick = static_cast<std::size_t>(
                static_cast<double>(j) * stride_f);
            picks.push_back(nbrs[pick]);
        }
        entry.pickEnd = picks.size();
        entries.push_back(entry);
    }

    for (unsigned strip = 0; strip < strips; ++strip) {
        const std::uint32_t begin_col = strip * strip_width;
        const std::uint32_t end_col =
            std::min(begin_col + strip_width, ec.layer.outWidth);
        const std::uint64_t strip_bytes =
            static_cast<std::uint64_t>(end_col - begin_col) *
            kFeatureBytes;
        ec.fastStreamTraffic.add(MemOp::Read, TrafficClass::Topology,
                                 topo_lines_per_pass);
        const Cycle pick_cost = std::max<Cycle>(
            1, divCeil(end_col - begin_col, ec.cfg.simdLanes));
        for (const EngineContext::SweepEntry &entry : entries) {
            for (std::size_t i = entry.pickBegin; i < entry.pickEnd;
                 ++i) {
                // Read-modify-write of the destination's psum strip:
                // one probe per line, the write hitting the line the
                // read just touched.
                const Addr strip_addr =
                    AddressMap::kPsumBase +
                    static_cast<Addr>(picks[i]) * psum_stride +
                    static_cast<Addr>(begin_col) * kFeatureBytes;
                ec.psumBuffer->accessRunRmwFunctional(
                    alignDown(strip_addr, kCachelineBytes),
                    static_cast<std::uint32_t>(
                        linesTouched(strip_addr, strip_bytes)),
                    TrafficClass::PartialSum);
            }
            engine_cycles[entry.engine] +=
                entry.walk * pick_cost;
            ec.aggMacs += static_cast<std::uint64_t>(entry.walk) *
                          (end_col - begin_col);
        }
    }
    // Dirty partial sums flush as the S^{l+1} writeback...
    const EngineContext::Snapshot drain_before = ec.snapshot();
    ec.psumBuffer->flush();
    // ...and X^{l+1} is emitted once after activation.
    std::uint64_t serialized_write_lines = 0;
    for (VertexId v = 0; v < owned; ++v) {
        const AccessPlan write = out.planRowWrite(v);
        ec.streamPlan(write, MemOp::Write, TrafficClass::FeatureOut);
        if (!out.supportsParallelWrite())
            serialized_write_lines += write.totalLines();
    }
    const Cycle agg_time =
        serialized_write_lines * ec.cfg.dram.burstCycles +
        ec.phaseCycles(*std::max_element(engine_cycles.begin(),
                                         engine_cycles.end()),
                       agg_before);
    result.aggCycles += agg_time;

    // Combination and aggregation are pipelined end to end.
    result.cycles = std::max(comb_time, agg_time) +
                    std::min(comb_time, agg_time) / 8;

    // Phase timeline: the input stream and the zero-skipping GEMM
    // are one phase from cycle 0; the strip aggregation is paced to
    // end its compute where the drain begins (the timing path's
    // accumulator banks only flush once aggregation retires); the
    // drain is the psum flush plus the X^{l+1} write stream at the
    // tail. The drain cost is folded into agg_time's roofline, so
    // splitting the spans keeps criticalEnd() == cycles.
    const Cycle drain_time = std::min<Cycle>(
        agg_time, serialized_write_lines * ec.cfg.dram.burstCycles +
                      ec.phaseCycles(0, drain_before));
    result.schedule.inputDma = {0, comb_time};
    result.schedule.combination = {0, comb_time};
    result.schedule.aggregation = {result.cycles - agg_time,
                                   result.cycles - drain_time};
    result.schedule.outputDrain = {result.cycles - drain_time,
                                   result.cycles};
    synthesizeColumnProductSpans(result.schedule, strips);
}

void
columnProductTiming(EngineContext &ec, LayerResult &result)
{
    const VertexId n = ec.layer.graph->numVertices();
    const FeatureLayout &in = *ec.layer.inLayout;
    const FeatureLayout &out = *ec.layer.outLayout;

    // Streaming input reads (combination) run concurrently with the
    // column-product aggregation: AWB-GCN pipelines the two phases.
    // One X pass per partial-sum strip (see columnProductFast).
    const unsigned strips = static_cast<unsigned>(
        divCeil(ec.layer.outWidth, ec.psumStripWidth()));
    auto input_dma = std::make_shared<StreamDma>(ec, 128);
    for (unsigned strip = 0; strip < strips; ++strip) {
        for (VertexId v = 0; v < n; ++v) {
            input_dma->addPlan(in.planRowRead(v), MemOp::Read,
                               TrafficClass::FeatureIn);
        }
    }
    const VertexId owned = ec.ownedEnd();
    if (ec.layer.residual && !ec.layer.isInputLayer) {
        input_dma->addRegion(AddressMap::kResidualBase,
                             static_cast<std::uint64_t>(owned) *
                                 ec.denseRowLines(ec.layer.outWidth),
                             MemOp::Read, TrafficClass::FeatureIn);
    }
    const GemmCost gemm = ec.systolic.gemm(
        n, ec.layer.inWidth, ec.layer.outWidth,
        ec.cfg.zeroSkipCombination ? ec.layer.inSparsity : 0.0);
    ec.combMacs += gemm.macs;
    const Cycle comb_compute = gemm.cycles / ec.cfg.combEngines;
    result.combCycles += comb_compute;

    auto psum = std::make_shared<TimingPsum>(ec);
    auto out_dma = std::make_shared<StreamDma>(ec, 128);
    // The phase base is the layer's start on the shared timeline,
    // not whatever events.now() happened to be at construction
    // (ROADMAP phase1/DMA accounting audit).
    const Cycle start = ec.layerBase;

    bool agg_finished = false;
    Cycle agg_end = start;
    Cycle drain_start = start;
    psum->start([&, out_dma, start] {
        agg_finished = true;
        result.aggCycles += ec.events.now() - start;
        agg_end = ec.events.now();
        drain_start = ec.events.now();
        // Dirty partial sums flush as the S^{l+1} writeback, then
        // the activated X^{l+1} streams out.
        ec.psumBuffer->flush();
        for (VertexId v = 0; v < owned; ++v) {
            out_dma->addPlan(out.planRowWrite(v), MemOp::Write,
                             TrafficClass::FeatureOut);
        }
        out_dma->start(nullptr);
    });
    input_dma->start(nullptr);
    ec.events.run();
    SGCN_ASSERT(agg_finished,
                "column-product aggregation never drained");
    const Cycle end = std::max(ec.events.now(), start + comb_compute);
    result.cycles = end - start;

    // The input stream feeds the zero-skipping GEMM from the layer
    // start; aggregation and the flush/write-out drain follow their
    // observed event times.
    result.schedule.inputDma = {0, comb_compute};
    result.schedule.combination = {0, comb_compute};
    result.schedule.aggregation = {0, agg_end - start};
    result.schedule.outputDrain = {drain_start - start, result.cycles};
    synthesizeColumnProductSpans(result.schedule, strips);
}

} // namespace sgcn
