/**
 * @file
 * The parallel sweep path: runAll with jobs > 1 must be bit-identical
 * to the serial path in identical order, concurrent runNetwork calls
 * must not race (this binary carries the "thread" ctest label and is
 * the target of the ThreadSanitizer CI job), and the shared pool
 * behind parallelFor must honour its coverage, concurrency-bound,
 * nesting and exception contract (and parallelTry its lowest-index
 * error contract).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "accel/personalities.hh"
#include "accel/runner.hh"
#include "fixtures.hh"
#include "sim/thread_pool.hh"

namespace sgcn
{
namespace
{

using testfx::expectRunIdentical;

struct ParallelRunner : ::testing::Test
{
    Dataset cora = testfx::cora();
    NetworkSpec net;
    RunOptions opts;

    void
    SetUp() override
    {
        opts.sampledIntermediateLayers = 2;
    }
};

TEST_F(ParallelRunner, JobsFanOutIsBitIdenticalAndOrdered)
{
    const auto configs = allPersonalities();
    RunOptions serial = opts;
    serial.jobs = 1;
    RunOptions fanned = opts;
    fanned.jobs = 8;

    const auto a = runAll(configs, cora, net, serial);
    const auto b = runAll(configs, cora, net, fanned);

    ASSERT_EQ(a.size(), configs.size());
    ASSERT_EQ(b.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(b[i].accelName, configs[i].name);
        expectRunIdentical(a[i], b[i]);
    }
}

TEST_F(ParallelRunner, JobsZeroMeansHardwareConcurrency)
{
    const std::vector<AccelConfig> configs{makeGcnax(), makeSgcn()};
    RunOptions all_threads = opts;
    all_threads.jobs = 0;
    const auto serial = runAll(configs, cora, net, opts);
    const auto fanned = runAll(configs, cora, net, all_threads);
    ASSERT_EQ(fanned.size(), 2u);
    expectRunIdentical(serial[0], fanned[0]);
    expectRunIdentical(serial[1], fanned[1]);
}

TEST_F(ParallelRunner, ConcurrentRunNetworkCallsDontRace)
{
    // N simultaneous simulations of the same workload must neither
    // race (TSan job) nor perturb each other's results.
    const AccelConfig config = makeSgcn();
    const RunResult expected = runNetwork(config, cora, net, opts);

    constexpr std::size_t kThreads = 8;
    std::vector<RunResult> results(kThreads);
    parallelFor(kThreads, kThreads, [&](std::size_t i) {
        results[i] = runNetwork(config, cora, net, opts);
    });
    for (const auto &run : results)
        expectRunIdentical(expected, run);
}

TEST_F(ParallelRunner, MixedPersonalitiesUnderConcurrency)
{
    // Different dataflows concurrently: every dataflow path
    // (agg-first, comb-first input layers, column product) at once.
    const auto configs = allPersonalities();
    const auto serial = runAll(configs, cora, net, opts);
    constexpr std::size_t kRepeat = 3;
    std::vector<std::vector<RunResult>> rounds(kRepeat);
    parallelFor(kRepeat, kRepeat, [&](std::size_t r) {
        RunOptions fanned = opts;
        fanned.jobs = 4;
        rounds[r] = runAll(configs, cora, net, fanned);
    });
    for (const auto &round : rounds) {
        ASSERT_EQ(round.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            expectRunIdentical(serial[i], round[i]);
    }
}

TEST_F(ParallelRunner, LayerFanOutIsBitIdenticalAcrossJobs)
{
    // One config per call, so the only fan-out is over the layers of
    // that network. No personality (all three dataflows, EnGN's
    // pinned cache) in either mode may depend on it.
    const Dataset citeseer = testfx::citeseer();
    const Dataset *datasets[] = {&cora, &citeseer};
    for (const Dataset *dataset : datasets) {
        for (ExecutionMode mode :
             {ExecutionMode::Fast, ExecutionMode::Timing}) {
            RunOptions serial = opts;
            serial.mode = mode;
            RunOptions fanned = serial;
            fanned.jobs = 8;
            for (const AccelConfig &config : allPersonalities()) {
                SCOPED_TRACE(config.name + " on " +
                             dataset->spec.abbrev);
                expectRunIdentical(
                    runNetwork(config, *dataset, net, serial),
                    runNetwork(config, *dataset, net, fanned));
            }
        }
    }
}

/** Concurrency level of a region, and the highest it reached. */
struct InFlight
{
    std::atomic<int> now{0};
    std::atomic<int> peak{0};

    void
    enter()
    {
        const int level = ++now;
        int seen = peak.load();
        while (seen < level && !peak.compare_exchange_weak(seen, level)) {
        }
    }

    void leave() { --now; }
};

TEST(ThreadPool, ResolvesJobsKnob)
{
    EXPECT_EQ(resolveJobs(1), 1u);
    EXPECT_EQ(resolveJobs(7), 7u);
    EXPECT_EQ(resolveJobs(0), hardwareJobs());
    EXPECT_GE(hardwareJobs(), 1u);
}

TEST(ThreadPool, NestedParallelForCoversEveryIndexOnce)
{
    constexpr std::size_t kOuter = 12;
    constexpr std::size_t kInner = 40;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    parallelFor(4, kOuter, [&](std::size_t i) {
        parallelFor(3, kInner,
                    [&](std::size_t j) { ++hits[i * kInner + j]; });
    });
    for (std::size_t k = 0; k < hits.size(); ++k)
        EXPECT_EQ(hits[k].load(), 1) << "index " << k;
}

TEST(ThreadPool, InFlightNeverExceedsJobs)
{
    // Grow the shared pool past the bound under test first, so the
    // bound must come from the batch's jobs, not the worker count.
    parallelFor(8, 8, [](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    });

    InFlight flat;
    parallelFor(3, 48, [&](std::size_t) {
        flat.enter();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        flat.leave();
    });
    EXPECT_LE(flat.peak.load(), 3);

    // Nested: each inner batch on its own, and the whole tree, stay
    // within the jobs requested.
    constexpr std::size_t kOuter = 6;
    std::vector<InFlight> inner(kOuter);
    InFlight total;
    parallelFor(2, kOuter, [&](std::size_t i) {
        parallelFor(2, 8, [&](std::size_t) {
            inner[i].enter();
            total.enter();
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            total.leave();
            inner[i].leave();
        });
    });
    for (const InFlight &batch : inner)
        EXPECT_LE(batch.peak.load(), 2);
    EXPECT_LE(total.peak.load(), 2 * 2);
}

TEST(ThreadPool, DepthThreeNestingFinishes)
{
    std::atomic<int> leaves{0};
    parallelFor(2, 4, [&](std::size_t) {
        parallelFor(2, 4, [&](std::size_t) {
            parallelFor(2, 4, [&](std::size_t) { ++leaves; });
        });
    });
    EXPECT_EQ(leaves.load(), 4 * 4 * 4);
}

TEST(ThreadPool, NestedFailureRethrowsLowestIndex)
{
    for (unsigned jobs : {1u, 4u}) {
        try {
            parallelFor(jobs, 8, [&](std::size_t i) {
                parallelFor(jobs, 8, [&](std::size_t j) {
                    if ((i == 2 && (j == 5 || j == 7)) ||
                        (i == 6 && j == 1)) {
                        throw std::runtime_error(
                            "boom " + std::to_string(i) + "." +
                            std::to_string(j));
                    }
                });
            });
            FAIL() << "expected failure with jobs=" << jobs;
        } catch (const std::runtime_error &error) {
            EXPECT_STREQ(error.what(), "boom 2.5");
        }
    }
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    parallelFor(8, kCount, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexFailure)
{
    const auto sweep = [](unsigned jobs) {
        parallelFor(jobs, 16, [](std::size_t i) {
            if (i == 3 || i == 11)
                throw std::runtime_error("boom " + std::to_string(i));
        });
    };
    for (unsigned jobs : {1u, 8u}) {
        try {
            sweep(jobs);
            FAIL() << "expected failure with jobs=" << jobs;
        } catch (const std::runtime_error &error) {
            EXPECT_STREQ(error.what(), "boom 3");
        }
    }
}

TEST(ThreadPool, ParallelTryReturnsLowestIndexError)
{
    // Several indices fail, finishing in no particular order; the
    // lowest one's error comes back, and every index still ran.
    for (unsigned jobs : {1u, 8u}) {
        std::vector<std::atomic<int>> ran(16);
        const Status status =
            parallelTry(jobs, ran.size(), [&](std::size_t i) {
                ++ran[i];
                if (i == 5 || i == 9 || i == 14) {
                    return Status(makeError(ErrorCode::ChipFailure,
                                            "fail ", i));
                }
                return Status::success();
            });
        ASSERT_FALSE(status.ok()) << "jobs=" << jobs;
        EXPECT_EQ(status.error().code, ErrorCode::ChipFailure);
        EXPECT_EQ(status.error().message, "fail 5") << "jobs=" << jobs;
        for (const std::atomic<int> &count : ran)
            EXPECT_EQ(count.load(), 1);
    }
    EXPECT_TRUE(
        parallelTry(8, 16, [](std::size_t) { return Status(); }).ok());
}

TEST(ThreadPool, OverlapsSleepingTasks)
{
    // The fan-out must actually overlap tasks: with four workers and
    // four 100 ms waits, at least two must be in flight at once
    // (true even on one hardware thread — sleeps overlap). Counting
    // concurrency instead of wall clock keeps this deterministic on
    // loaded CI runners.
    InFlight tasks;
    parallelFor(4, 4, [&](std::size_t) {
        tasks.enter();
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        tasks.leave();
    });
    EXPECT_GE(tasks.peak.load(), 2);
}

} // namespace
} // namespace sgcn
