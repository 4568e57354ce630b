/**
 * @file
 * google-benchmark micro benchmarks of the event kernel: schedule/run
 * throughput for empty, small-capture, and spilled-capture callbacks,
 * plus a DRAM-shaped mixed workload. Counts heap allocations per
 * event (operator new replacement, this binary only) — the proof
 * that the common scheduling path no longer allocates.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace
{

std::atomic<std::uint64_t> g_allocs{0};

} // namespace

// Count every heap allocation in this binary. The slab spill path
// and container growth still allocate; per-event callback traffic
// must not. (GCC pairs its built-in operator new model with the
// free() below and warns; the replacement operators are matched.)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc{};
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace
{

using namespace sgcn;

/** Track allocations across the timed region and report per-item. */
class AllocCounter
{
  public:
    explicit AllocCounter(benchmark::State &state) : state(state)
    {
        start = g_allocs.load(std::memory_order_relaxed);
    }

    double
    report(std::int64_t items)
    {
        const std::uint64_t end =
            g_allocs.load(std::memory_order_relaxed);
        const double per_item =
            static_cast<double>(end - start) /
            static_cast<double>(items > 0 ? items : 1);
        state.counters["allocs_per_item"] =
            benchmark::Counter(per_item);
        return per_item;
    }

  private:
    benchmark::State &state;
    std::uint64_t start;
};

constexpr int kBatch = 4096;

void
BM_ScheduleRunEmpty(benchmark::State &state)
{
    EventQueue events;
    // Warm the slot pool so steady-state container growth is not
    // attributed to the scheduling path.
    for (int i = 0; i < kBatch; ++i)
        events.schedule(events.now() + i % 64, [] {});
    events.run();

    AllocCounter allocs(state);
    std::int64_t items = 0;
    for (auto _ : state) {
        for (int i = 0; i < kBatch; ++i)
            events.schedule(events.now() + i % 64, [] {});
        events.run();
        items += kBatch;
    }
    allocs.report(items);
    state.SetItemsProcessed(items);
}
BENCHMARK(BM_ScheduleRunEmpty);

void
BM_ScheduleRunSmallCapture(benchmark::State &state)
{
    EventQueue events;
    std::uint64_t sink = 0;
    auto warm = [&] {
        for (int i = 0; i < kBatch; ++i) {
            // The dominant shape in the simulator: a pointer plus a
            // couple of words, well inside the inline budget.
            events.schedule(events.now() + i % 64,
                            [&sink, i, extra = std::uint64_t(i)] {
                                sink += i + extra;
                            });
        }
        events.run();
    };
    warm();

    AllocCounter allocs(state);
    std::int64_t items = 0;
    for (auto _ : state) {
        warm();
        items += kBatch;
    }
    allocs.report(items);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(items);
}
BENCHMARK(BM_ScheduleRunSmallCapture);

void
BM_ScheduleRunSpilledCapture(benchmark::State &state)
{
    EventQueue events;
    std::uint64_t sink = 0;
    struct Fat
    {
        std::uint64_t payload[10]; // 80 B > kEventCaptureBytes
    };
    auto warm = [&] {
        for (int i = 0; i < kBatch; ++i) {
            Fat fat{};
            fat.payload[0] = static_cast<std::uint64_t>(i);
            events.schedule(events.now() + i % 64, [&sink, fat] {
                sink += fat.payload[0];
            });
        }
        events.run();
    };
    warm(); // populate the thread-local spill slab

    AllocCounter allocs(state);
    std::int64_t items = 0;
    for (auto _ : state) {
        warm();
        items += kBatch;
    }
    allocs.report(items);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(items);
}
BENCHMARK(BM_ScheduleRunSpilledCapture);

/** DRAM-shaped mixture: bursts into the timing cache + DRAM with
 *  completion joins, the event pattern of a real timing run. */
void
BM_MixedDramWorkload(benchmark::State &state)
{
    EventQueue events;
    Dram dram(DramConfig::hbm2(), events);
    CacheConfig config;
    Cache cache(config, dram, events);
    Rng rng(7);
    constexpr int kPlans = 512;

    auto pump = [&] {
        unsigned live = 0;
        for (int p = 0; p < kPlans; ++p) {
            AccessPlan plan;
            plan.addLines((rng.uniformInt(1 << 16)) * kCachelineBytes,
                          1 + rng.uniformInt(8));
            ++live;
            cache.accessBurst(plan, MemOp::Read,
                              TrafficClass::FeatureIn,
                              MemCallback([&live] { --live; }));
        }
        events.run();
        benchmark::DoNotOptimize(live);
    };
    pump(); // warm caches, pools, and slabs

    AllocCounter allocs(state);
    std::int64_t items = 0;
    for (auto _ : state) {
        pump();
        items += kPlans;
    }
    const double per_plan = allocs.report(items);
    state.SetItemsProcessed(items);
    state.counters["events"] = benchmark::Counter(
        static_cast<double>(events.executed()));

    // The memory path is engineered allocation-free in steady state:
    // pooled burst joins whose node pointers are each line's
    // completion, the open-addressing MSHR table with inline target
    // storage, and retained-capacity scheduling queues. The measured
    // residue is ~0.004 allocs/plan (4-CPU x86-64 VM); fail loudly
    // if per-miss bookkeeping allocations ever return (the
    // unordered_map-based MSHRs sat at ~9 allocs/plan).
    constexpr double kMaxAllocsPerPlan = 0.5;
    if (per_plan > kMaxAllocsPerPlan) {
        std::fprintf(stderr,
                     "FATAL: %.3f allocs/plan exceeds the %.1f "
                     "bound — the memory path is allocating per "
                     "miss again\n",
                     per_plan, kMaxAllocsPerPlan);
        std::abort();
    }
}
BENCHMARK(BM_MixedDramWorkload)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
