#include "accel/pipeline/shard_timeline.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace sgcn
{

LayerResult
composeChipLayers(std::span<const LayerResult> chip_layers,
                  const ExchangeCost &exchange)
{
    SGCN_ASSERT(!chip_layers.empty(), "compose needs at least one chip");

    const LayerResult &bottleneck = *std::max_element(
        chip_layers.begin(), chip_layers.end(),
        [](const LayerResult &a, const LayerResult &b) {
            return a.cycles < b.cycles;
        });
    LayerResult merged;
    merged.cycles = exchange.cycles + bottleneck.cycles;
    // Engine-busy cycles follow the critical path (the bottleneck
    // chip); traffic and work counts sum across chips.
    merged.aggCycles = bottleneck.aggCycles;
    merged.combCycles = bottleneck.combCycles;
    for (const LayerResult &chip : chip_layers) {
        merged.traffic.merge(chip.traffic);
        for (std::uint64_t LayerResult::*counter : LayerResult::kCounters)
            merged.*counter += chip.*counter;
    }

    // The bottleneck chip's schedule, delayed by the exchange. The
    // input-DMA phase is stretched back to cycle 0 so the exchange
    // occupies the prefetch prefix: the pipeline then hides it behind
    // the previous layer's drain exactly like a weight prefetch.
    merged.schedule = bottleneck.schedule;
    merged.schedule.shift(exchange.cycles);
    merged.schedule.inputDma.start = 0;
    SGCN_ASSERT(merged.schedule.criticalEnd() == merged.cycles,
                "composed schedule must span the merged layer");
    return merged;
}

} // namespace sgcn
