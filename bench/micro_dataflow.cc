/**
 * @file
 * google-benchmark micro benchmarks of the dataflow strategies
 * (ROADMAP: per-strategy targets): each of the three
 * src/accel/dataflow/ strategies simulating one intermediate layer
 * of the small Cora fixture, in isolation from the network runner,
 * so dataflow-level perf moves are measurable without runNetwork's
 * sampling/extrapolation on top. Fast mode covers all three; timing
 * mode runs on a smaller fixture because the event-driven paths are
 * orders of magnitude slower. A fourth fast case runs EnGN, whose
 * degree-aware vertex cache keeps lines pinned for the whole layer
 * and so drives the cache's pinned fused path.
 */

#include <benchmark/benchmark.h>

#include "accel/layer_engine.hh"
#include "accel/personalities.hh"

namespace
{

using namespace sgcn;

AccelConfig
configFor(DataflowKind kind)
{
    // SGCN's substrate for the two row products (only the dataflow
    // knob differs), AWB-GCN for the column product (it provisions
    // the accumulator banks the strategy requires).
    if (kind == DataflowKind::ColumnProduct)
        return makeAwbGcn();
    AccelConfig config = makeSgcn();
    config.dataflow = kind;
    return config;
}

void
runDataflow(benchmark::State &state, const AccelConfig &config,
            ExecutionMode mode, double scale)
{
    const Dataset cora =
        instantiateDataset(datasetByAbbrev("CR"), scale);
    const NetworkSpec net;
    const LayerContext ctx =
        makeIntermediateLayer(cora, cora.graph, config, net, 1);

    std::uint64_t macs = 0;
    for (auto _ : state) {
        // The engine (and with it the cache, DRAM, and event-queue
        // state) is rebuilt per iteration, exactly as the runner
        // does per layer; the workload context is shared, as all
        // strategies treat it read-only.
        LayerEngine engine(config, ctx);
        LayerResult result = engine.run(mode);
        macs = result.macs;
        benchmark::DoNotOptimize(result);
    }
    state.counters["simulated_macs"] =
        benchmark::Counter(static_cast<double>(macs));
}

void
BM_DataflowFast(benchmark::State &state)
{
    runDataflow(state,
                configFor(static_cast<DataflowKind>(state.range(0))),
                ExecutionMode::Fast, 0.1);
}
BENCHMARK(BM_DataflowFast)
    ->Arg(static_cast<int>(DataflowKind::AggFirstRowProduct))
    ->Arg(static_cast<int>(DataflowKind::CombFirstRowProduct))
    ->Arg(static_cast<int>(DataflowKind::ColumnProduct))
    ->Unit(benchmark::kMillisecond);

/** EnGN's agg-first layer with its DAVC pins live: the same
 *  strategy as the first fast case, through the pinned cache path. */
void
BM_DataflowFastPinned(benchmark::State &state)
{
    runDataflow(state, makeEngn(), ExecutionMode::Fast, 0.1);
}
BENCHMARK(BM_DataflowFastPinned)->Unit(benchmark::kMillisecond);

void
BM_DataflowTiming(benchmark::State &state)
{
    runDataflow(state,
                configFor(static_cast<DataflowKind>(state.range(0))),
                ExecutionMode::Timing, 0.05);
}
BENCHMARK(BM_DataflowTiming)
    ->Arg(static_cast<int>(DataflowKind::AggFirstRowProduct))
    ->Arg(static_cast<int>(DataflowKind::CombFirstRowProduct))
    ->Arg(static_cast<int>(DataflowKind::ColumnProduct))
    ->Unit(benchmark::kMillisecond);

} // namespace
