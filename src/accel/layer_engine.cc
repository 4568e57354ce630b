#include "accel/layer_engine.hh"

#include "accel/dataflow/dataflow.hh"
#include "sim/logging.hh"

namespace sgcn
{

LayerEngine::LayerEngine(const AccelConfig &config,
                         const LayerContext &ctx)
    : ec(config, ctx)
{
}

LayerEngine::~LayerEngine() = default;

DataflowKind
LayerEngine::effectiveDataflow(const AccelConfig &config,
                               bool is_input_layer)
{
    if (config.dataflow == DataflowKind::AggFirstRowProduct &&
        is_input_layer) {
        return DataflowKind::CombFirstRowProduct;
    }
    return config.dataflow;
}

DataflowKind
LayerEngine::effectiveDataflow() const
{
    return effectiveDataflow(ec.cfg, ec.layer.isInputLayer);
}

LayerResult
LayerEngine::run(ExecutionMode mode)
{
    LayerResult result;
    ec.layerBase = ec.events.now();
    const bool fast = mode == ExecutionMode::Fast;
    // No default: -Wswitch flags a DataflowKind without a case.
    switch (effectiveDataflow()) {
      case DataflowKind::AggFirstRowProduct:
        fast ? aggFirstFast(ec, result) : aggFirstTiming(ec, result);
        break;
      case DataflowKind::CombFirstRowProduct:
        fast ? combFirstFast(ec, result) : combFirstTiming(ec, result);
        break;
      case DataflowKind::ColumnProduct:
        fast ? columnProductFast(ec, result)
             : columnProductTiming(ec, result);
        break;
    }
    finalize(result);
    return result;
}

void
LayerEngine::finalize(LayerResult &result)
{
    // Weight stream: W^l is read once per layer into the weight
    // buffer.
    const std::uint64_t w_lines = ec.weightLines();
    ec.fastStreamTraffic.add(MemOp::Read, TrafficClass::Weight,
                             w_lines);
    const Cycle w_cycles =
        w_lines * ec.cfg.dram.burstCycles / ec.cfg.dram.channels;
    result.cycles += w_cycles;

    // The weight stream is the schedule's input-DMA prefix: W^l
    // prefetches ahead of the first feature read, which is the
    // window the network pipeline hides behind the previous layer's
    // output drain. Shifting the dataflow-reported phases keeps the
    // schedule consistent with the serialized total.
    result.schedule.shift(w_cycles);
    result.schedule.inputDma.start = 0;
    SGCN_ASSERT(result.schedule.wellOrdered() &&
                    result.schedule.criticalEnd() == result.cycles &&
                    result.schedule.tileSpansWellFormed(),
                "dataflow '", dataflowKindName(effectiveDataflow()),
                "' reported a layer schedule inconsistent with its "
                "cycle total");

    result.traffic = ec.offChipTraffic();
    const CacheStats &stats = ec.cache.stats();
    result.cacheAccesses = stats.hits + stats.misses;
    result.cacheHits = stats.hits;
    if (ec.psumBuffer) {
        // Accumulator-bank accesses are on-chip SRAM work and count
        // towards energy (their spills are in offChipTraffic).
        const CacheStats &psum_stats = ec.psumBuffer->stats();
        result.cacheAccesses += psum_stats.hits + psum_stats.misses;
        result.cacheHits += psum_stats.hits;
    }
    result.macs = ec.aggMacs + ec.combMacs;
    result.dramRetries = ec.dram.transientRetries();

    result.bwUtil = ec.cfg.dram.bandwidthUtil(
        result.traffic.totalLines(), result.cycles);
}

} // namespace sgcn
