/**
 * @file
 * google-benchmark micro benchmarks of the memory models: functional
 * cache probe and run throughput, timing cache+DRAM event rate, and
 * graph generation, so simulator performance regressions are visible.
 */

#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "graph/generators.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/rng.hh"

namespace
{

using namespace sgcn;

void
BM_CacheFunctionalProbe(benchmark::State &state)
{
    EventQueue events;
    Dram dram(DramConfig::hbm2(), events);
    CacheConfig config;
    Cache cache(config, dram, events);
    Rng rng(1);
    for (auto _ : state) {
        const Addr line = rng.uniformInt(1 << 16) * kCachelineBytes;
        benchmark::DoNotOptimize(cache.accessFunctional(
            MemRequest{line, MemOp::Read, TrafficClass::FeatureIn}));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheFunctionalProbe);

/**
 * The fast sweeps' hot entry point: accessRunFunctional over a
 * random-set stream of two-line runs through the Table III cache
 * (512 KB, 16-way, LRU). Arg 0 draws from a working set of half the
 * capacity (hit-heavy), arg 1 from 128x the capacity (miss-heavy, a
 * victim pick per line). Reports the time per line.
 */
void
BM_FunctionalRun(benchmark::State &state)
{
    EventQueue events;
    Dram dram(DramConfig::hbm2(), events);
    CacheConfig config;
    Cache cache(config, dram, events);
    constexpr std::uint32_t kRunLines = 2;
    const std::uint64_t capacity_lines =
        config.sizeBytes / kCachelineBytes;
    const std::uint64_t span =
        state.range(0) == 0 ? capacity_lines / 2 : capacity_lines * 128;
    Rng rng(3);
    std::vector<Addr> starts(1 << 16);
    for (Addr &start : starts)
        start = rng.uniformInt(span) * kCachelineBytes;
    for (const Addr start : starts) // warm the tag array
        cache.accessRunFunctional(start, kRunLines, MemOp::Read,
                                  TrafficClass::FeatureIn);
    std::size_t next = 0;
    for (auto _ : state) {
        cache.accessRunFunctional(starts[next], kRunLines, MemOp::Read,
                                  TrafficClass::FeatureIn);
        next = (next + 1) & (starts.size() - 1);
    }
    benchmark::DoNotOptimize(cache.stats().hits);
    state.SetItemsProcessed(state.iterations() * kRunLines);
    // Seconds per line, printed with an SI prefix (e.g. 9.6ns).
    state.counters["per_line"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * kRunLines,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    state.counters["hit_rate"] = cache.stats().hitRate();
}
BENCHMARK(BM_FunctionalRun)->Arg(0)->Arg(1);

void
BM_TimingCacheMissStream(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        EventQueue events;
        Dram dram(DramConfig::hbm2(), events);
        CacheConfig config;
        Cache cache(config, dram, events);
        Rng rng(2);
        state.ResumeTiming();

        unsigned outstanding = 0;
        std::uint64_t issued = 0;
        std::function<void()> pump = [&] {
            while (outstanding < 64 && issued < 20000) {
                const Addr line =
                    rng.uniformInt(1 << 18) * kCachelineBytes;
                ++issued;
                ++outstanding;
                cache.access(MemRequest{line, MemOp::Read,
                                        TrafficClass::FeatureIn},
                             [&] {
                                 --outstanding;
                                 pump();
                             });
            }
        };
        pump();
        events.run();
        benchmark::DoNotOptimize(events.executed());
    }
    state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_TimingCacheMissStream)->Unit(benchmark::kMillisecond);

void
BM_ClusteredGraphGen(benchmark::State &state)
{
    ClusteredGraphParams params;
    params.vertices = static_cast<VertexId>(state.range(0));
    params.avgDegree = 10.0;
    for (auto _ : state) {
        params.seed++;
        CsrGraph graph = clusteredGraph(params);
        benchmark::DoNotOptimize(graph.numEdges());
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(params.avgDegree *
                                  params.vertices));
}
BENCHMARK(BM_ClusteredGraphGen)->Arg(1024)->Arg(8192)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
