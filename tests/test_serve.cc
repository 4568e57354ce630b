/**
 * @file
 * The serving-trace subsystem (src/serve/, src/graph/sampler). The
 * load-bearing contracts: nearest-rank percentiles match the closed
 * form; the arrival process and the whole served trace are
 * bit-identical at any --jobs value (this binary carries the
 * "thread" ctest label and runs under the ThreadSanitizer CI job);
 * admission never lets a request linger past the cap or a batch
 * exceed its size cap; ego-network samples are pure functions of
 * (trace seed, request) — independent of batch membership; the batch
 * subgraph preserves parent weights verbatim; a --faults plan
 * replays to an identical tail; and a served trace is summed and
 * priced like one run (bandwidth use, energy, per-chip cycles keyed
 * by chip id).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "accel/report.hh"
#include "fixtures.hh"
#include "graph/sampler.hh"
#include "serve/serve.hh"
#include "sim/fault/fault.hh"

namespace sgcn
{
namespace
{

ServeOptions
smallTrace()
{
    ServeOptions serve;
    serve.offeredQps = 50000.0; // keep cycle spans small
    serve.requests = 48;
    serve.maxBatch = 6;
    serve.maxLingerCycles = 40000;
    serve.sample.hops = 2;
    serve.sample.fanout = 5;
    return serve;
}

RunOptions
serveRunOptions(unsigned jobs = 1)
{
    RunOptions opts;
    opts.sampledIntermediateLayers = 2;
    opts.jobs = jobs;
    return opts;
}

// --------------------------------------------------------------
// Percentile math
// --------------------------------------------------------------

TEST(LatencyPercentile, MatchesNearestRankClosedForm)
{
    // 10 known samples: nearest-rank percentile p is the
    // ceil(p/100 * 10)-th smallest value.
    const std::vector<Cycle> samples{10, 20, 30, 40,  50,
                                     60, 70, 80, 90, 100};
    EXPECT_EQ(latencyPercentile(samples, 50.0), 50u);
    EXPECT_EQ(latencyPercentile(samples, 90.0), 90u);
    EXPECT_EQ(latencyPercentile(samples, 95.0), 100u);
    EXPECT_EQ(latencyPercentile(samples, 99.0), 100u);
    EXPECT_EQ(latencyPercentile(samples, 100.0), 100u);
    // Below one-sample resolution clamps to the minimum.
    EXPECT_EQ(latencyPercentile(samples, 1.0), 10u);
    // Order must not matter: the function sorts its copy.
    std::vector<Cycle> shuffled{90, 10, 100, 30, 50,
                                70, 20, 80,  40, 60};
    EXPECT_EQ(latencyPercentile(shuffled, 95.0), 100u);
    EXPECT_EQ(latencyPercentile({}, 99.0), 0u);
    EXPECT_EQ(latencyPercentile({42}, 50.0), 42u);
}

TEST(LatencyPercentile, AgreesWithBruteForceOnOddSizes)
{
    std::vector<Cycle> samples;
    for (Cycle v = 1; v <= 17; ++v)
        samples.push_back(v * 3);
    for (double pct : {1.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0}) {
        const auto rank = static_cast<std::size_t>(std::ceil(
            pct / 100.0 * static_cast<double>(samples.size())));
        EXPECT_EQ(latencyPercentile(samples, pct),
                  samples[std::max<std::size_t>(rank, 1) - 1])
            << pct;
    }
}

// --------------------------------------------------------------
// Arrival process
// --------------------------------------------------------------

TEST(GenerateArrivals, PoissonStreamIsSeededAndMonotone)
{
    const ServeOptions serve = smallTrace();
    const std::vector<Cycle> a = generateArrivals(serve);
    const std::vector<Cycle> b = generateArrivals(serve);
    ASSERT_EQ(a.size(), serve.requests);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));

    ServeOptions reseeded = serve;
    reseeded.sample.seed ^= 1;
    EXPECT_NE(generateArrivals(reseeded), a);
}

TEST(GenerateArrivals, FixedRateSpacingIsExact)
{
    ServeOptions serve = smallTrace();
    serve.poisson = false;
    serve.offeredQps = 1.0e6; // 1000 cycles apart at 1 GHz
    const std::vector<Cycle> arrivals = generateArrivals(serve);
    ASSERT_EQ(arrivals.size(), serve.requests);
    for (std::size_t r = 0; r < arrivals.size(); ++r)
        EXPECT_EQ(arrivals[r], (r + 1) * 1000u);
}

// --------------------------------------------------------------
// Admission / batching invariants
// --------------------------------------------------------------

TEST(AdmitBatches, InvariantsHoldOnPoissonTrace)
{
    const ServeOptions serve = smallTrace();
    const std::vector<Cycle> arrivals = generateArrivals(serve);
    const std::vector<RequestBatch> batches = admitBatches(
        arrivals, serve.maxBatch, serve.maxLingerCycles);

    ASSERT_FALSE(batches.empty());
    std::uint32_t next = 0;
    for (const RequestBatch &batch : batches) {
        // Batches partition the trace in arrival order.
        EXPECT_EQ(batch.first, next);
        next += batch.count;
        ASSERT_GE(batch.count, 1u);
        // No batch exceeds the size cap.
        EXPECT_LE(batch.count, serve.maxBatch);
        // No member waits past the linger cap before the batch
        // closes, and none closes before its last member arrived.
        const Cycle deadline =
            arrivals[batch.first] + serve.maxLingerCycles;
        EXPECT_LE(batch.closeCycle, deadline);
        for (std::uint32_t r = 0; r < batch.count; ++r)
            EXPECT_GE(batch.closeCycle,
                      arrivals[batch.first + r]);
        // A short batch only closes because the linger expired or
        // the trace ended.
        if (batch.count < serve.maxBatch &&
            batch.first + batch.count < arrivals.size()) {
            EXPECT_EQ(batch.closeCycle, deadline);
            EXPECT_GE(arrivals[batch.first + batch.count], deadline);
        }
    }
    EXPECT_EQ(next, arrivals.size());
}

TEST(AdmitBatches, BackToBackArrivalsFillBatches)
{
    // Ten simultaneous arrivals with batch cap 4: 4+4+2.
    const std::vector<Cycle> arrivals(10, 100);
    const std::vector<RequestBatch> batches =
        admitBatches(arrivals, 4, 1000000);
    ASSERT_EQ(batches.size(), 3u);
    EXPECT_EQ(batches[0].count, 4u);
    EXPECT_EQ(batches[1].count, 4u);
    EXPECT_EQ(batches[2].count, 2u);
    // Full batches close on their filling arrival, not the linger.
    EXPECT_EQ(batches[0].closeCycle, 100u);
    EXPECT_EQ(batches[1].closeCycle, 100u);
    // The trailing short batch waits out the linger.
    EXPECT_EQ(batches[2].closeCycle, 100u + 1000000u);
}

// --------------------------------------------------------------
// Sampler determinism
// --------------------------------------------------------------

TEST(EgoSampler, SampleIsIndependentOfBatchMembership)
{
    const Dataset dataset = testfx::cora();
    EgoSampleParams params;
    params.hops = 2;
    params.fanout = 4;
    const auto solo = sampleEgoNet(dataset.graph, params.seed, 7,
                                   params);
    const auto again = sampleEgoNet(dataset.graph, params.seed, 7,
                                    params);
    EXPECT_EQ(solo, again);

    // The same request inside two different batches contributes the
    // same edges: the union subgraph of [7, 8) is exactly solo's
    // edge set (deduplicated).
    const BatchSubgraph one =
        sampleBatchSubgraph(dataset.graph, 7, 1, params);
    std::vector<EdgePair> dedup = solo;
    std::sort(dedup.begin(), dedup.end());
    dedup.erase(std::unique(dedup.begin(), dedup.end()),
                dedup.end());
    EXPECT_EQ(one.sampledEdges, dedup.size());

    // Different requests draw from decorrelated streams.
    EXPECT_NE(sampleEgoNet(dataset.graph, params.seed, 8, params),
              solo);
}

TEST(EgoSampler, BatchSubgraphPreservesParentWeights)
{
    const Dataset dataset = testfx::cora();
    EgoSampleParams params;
    params.fanout = 6;
    const BatchSubgraph sub =
        sampleBatchSubgraph(dataset.graph, 0, 4, params);
    ASSERT_GT(sub.graph.numVertices(), 0u);
    ASSERT_EQ(sub.vertices.size(), sub.graph.numVertices());
    EXPECT_TRUE(std::is_sorted(sub.vertices.begin(),
                               sub.vertices.end()));
    ASSERT_EQ(sub.roots.size(), 4u);

    // Every subgraph edge carries the parent row's weight verbatim
    // (the chip-shard contract: normalized weights cannot be
    // recomputed from the subgraph).
    for (VertexId row = 0; row < sub.graph.numVertices(); ++row) {
        const VertexId parent = sub.vertices[row];
        const auto nbrs = sub.graph.neighbors(row);
        const auto wts = sub.graph.weights(row);
        const auto parent_nbrs = dataset.graph.neighbors(parent);
        const auto parent_wts = dataset.graph.weights(parent);
        for (std::size_t e = 0; e < nbrs.size(); ++e) {
            const VertexId target = sub.vertices[nbrs[e]];
            const auto it = std::lower_bound(parent_nbrs.begin(),
                                             parent_nbrs.end(),
                                             target);
            ASSERT_TRUE(it != parent_nbrs.end() && *it == target);
            EXPECT_EQ(wts[e],
                      parent_wts[static_cast<std::size_t>(
                          it - parent_nbrs.begin())]);
        }
    }
}

// --------------------------------------------------------------
// Served traces: jobs-invariance and fault replay
// --------------------------------------------------------------

TEST(ServeTrace, BitIdenticalAcrossJobCounts)
{
    const Dataset dataset = testfx::cora();
    NetworkSpec net;
    net.layers = 8;
    const ServeOptions serve = smallTrace();

    const RunResult serial = serveTrace(
        makeSgcn(), dataset, net, serveRunOptions(1), serve);
    const RunResult threaded = serveTrace(
        makeSgcn(), dataset, net, serveRunOptions(8), serve);
    ASSERT_TRUE(serial.serve.enabled);
    testfx::expectMetricsIdentical(serial, threaded);
    testfx::expectCountsIdentical(serial.total, threaded.total);

    // Sanity on the aggregate shape: every request is charged a
    // positive latency and occupancy respects the caps.
    EXPECT_EQ(serial.serve.requests, serve.requests);
    EXPECT_GE(serial.serve.p99Cycles, serial.serve.p50Cycles);
    EXPECT_LE(serial.serve.peakOccupancy, serve.maxBatch);
    EXPECT_GT(serial.serve.sustainedQps, 0.0);
}

TEST(ServeTrace, FaultPlanReplaysIdenticalTail)
{
    const Dataset dataset = testfx::cora();
    NetworkSpec net;
    net.layers = 8;
    const ServeOptions serve = smallTrace();

    RunOptions opts = serveRunOptions(4);
    opts.chips = 2;
    opts.faults =
        FaultPlan::parse("link-degrade:chip1:0.5").orFatal();

    const RunResult first =
        serveTrace(makeSgcn(), dataset, net, opts, serve);
    const RunResult replay =
        serveTrace(makeSgcn(), dataset, net, opts, serve);
    ASSERT_TRUE(first.faults.enabled);
    testfx::expectMetricsIdentical(first, replay);

    // And the degraded link measurably shifts the tail versus the
    // fault-free trace on the same arrivals.
    RunOptions clean = opts;
    clean.faults = {};
    const RunResult base =
        serveTrace(makeSgcn(), dataset, net, clean, serve);
    EXPECT_EQ(base.serve.batches, first.serve.batches);
    EXPECT_GT(first.serve.p99Cycles, base.serve.p99Cycles);
}

TEST(ServeTrace, PricedLikeARun)
{
    // A served trace's totals are priced like one run's: bandwidth
    // use over the summed lines and cycles, and energy, TDP and area
    // from the summed counts.
    const Dataset dataset = testfx::cora();
    NetworkSpec net;
    net.layers = 8;
    const AccelConfig config = makeSgcn();
    const RunResult served = serveTrace(config, dataset, net,
                                        serveRunOptions(2), smallTrace());
    ASSERT_TRUE(served.serve.enabled);
    ASSERT_GT(served.total.cycles, 0u);

    const std::uint64_t lines = served.total.traffic.totalLines();
    EXPECT_GT(served.total.bwUtil, 0.0);
    EXPECT_EQ(served.total.bwUtil,
              std::min(1.0, static_cast<double>(lines) *
                                config.dram.burstCycles /
                                (static_cast<double>(config.dram.channels) *
                                 static_cast<double>(served.total.cycles))));

    const EnergyModel model(
        {}, config.dram.generation == DramGeneration::Hbm1);
    RunCounts counts;
    counts.macs = served.total.macs;
    counts.cacheAccesses = served.total.cacheAccesses;
    counts.dramLines = lines;
    AccelDescriptor desc = config.energyDesc;
    desc.cacheKb = static_cast<double>(config.cache.sizeBytes) / 1024.0;
    const EnergyBreakdown energy = model.dynamicEnergy(counts, desc.cacheKb);
    EXPECT_EQ(served.energy.computeJ, energy.computeJ);
    EXPECT_EQ(served.energy.cacheJ, energy.cacheJ);
    EXPECT_EQ(served.energy.dramJ, energy.dramJ);
    EXPECT_EQ(served.tdpWatts, model.tdpWatts(desc));
    EXPECT_EQ(served.areaMm2, model.areaMm2(desc));
}

TEST(ServeTrace, MultiChipPairsChipIdsWithCycles)
{
    const Dataset dataset = testfx::cora();
    NetworkSpec net;
    net.layers = 8;
    const ServeOptions serve = smallTrace();

    RunOptions two_chips = serveRunOptions(4);
    two_chips.chips = 2;
    const RunResult clean =
        serveTrace(makeSgcn(), dataset, net, two_chips, serve);
    ASSERT_TRUE(clean.shard.enabled);
    EXPECT_EQ(clean.shard.chipIds, (std::vector<unsigned>{0, 1}));
    EXPECT_EQ(clean.shard.chipCycles.size(), 2u);

    // A chip lost at layer 1 of every batch: only the survivors are
    // reported, each slot paired with its chip id.
    RunOptions opts = serveRunOptions(4);
    opts.chips = 4;
    opts.degradedMode = DegradedMode::Repartition;
    opts.faults = FaultPlan::parse("chip-fail:chip2@layer1").orFatal();
    const RunResult run =
        serveTrace(makeSgcn(), dataset, net, opts, serve);
    const ShardStats &shard = run.shard;
    ASSERT_TRUE(shard.enabled);
    EXPECT_EQ(shard.chipIds, (std::vector<unsigned>{0, 1, 3}));
    ASSERT_EQ(shard.chipCycles.size(), shard.chipIds.size());

    // Replay every batch as its own run and sum each chip's cycles.
    const std::vector<RequestBatch> batches =
        admitBatches(generateArrivals(serve), serve.maxBatch,
                     serve.maxLingerCycles);
    std::vector<Cycle> expected(4, 0);
    for (std::size_t b = 0; b < batches.size(); ++b) {
        BatchSubgraph sub =
            sampleBatchSubgraph(dataset.graph, batches[b].first,
                                batches[b].count, serve.sample);
        const Dataset batch_ds{dataset.spec, std::move(sub.graph),
                               dataset.inputWidth, dataset.vertexScale,
                               0.0};
        RunOptions batch_opts = opts;
        batch_opts.faults.seed =
            FaultInjector::deriveSeed(opts.faults.seed, b);
        Expected<RunResult> replay =
            tryRunNetwork(makeSgcn(), batch_ds, net, batch_opts);
        ASSERT_TRUE(replay.ok()) << replay.error().message;
        const ShardStats &bs = replay.value().shard;
        ASSERT_EQ(bs.chipIds.size(), bs.chipCycles.size());
        for (std::size_t i = 0; i < bs.chipIds.size(); ++i)
            expected[bs.chipIds[i]] += bs.chipCycles[i];
    }
    for (std::size_t i = 0; i < shard.chipIds.size(); ++i) {
        EXPECT_EQ(shard.chipCycles[i], expected[shard.chipIds[i]])
            << "chip " << shard.chipIds[i];
    }
    EXPECT_EQ(shard.bottleneckChipCycles,
              *std::max_element(shard.chipCycles.begin(),
                                shard.chipCycles.end()));
}

TEST(ServeTrace, CsvAppendsServeColumnsForMixedSweeps)
{
    const Dataset dataset = testfx::cora();
    NetworkSpec net;
    net.layers = 8;
    const RunResult served = serveTrace(
        makeSgcn(), dataset, net, serveRunOptions(2), smallTrace());
    RunResult plain;
    plain.accelName = "GCNAX";
    plain.datasetAbbrev = "CR";

    const std::string path = ::testing::TempDir() + "sgcn_serve_" +
                             std::to_string(::getpid()) + ".csv";
    writeRunsCsv({served, plain}, path);
    std::ifstream in(path);
    std::string header, served_row, plain_row;
    std::getline(in, header);
    std::getline(in, served_row);
    std::getline(in, plain_row);
    std::remove(path.c_str());
    EXPECT_NE(header.find(",serve_requests,"), std::string::npos);
    const auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(header), commas(served_row));
    EXPECT_EQ(commas(header), commas(plain_row));
    // A non-serving run reports empty arrival kind and zero counts.
    EXPECT_NE(plain_row.find(",0,0,,"), std::string::npos);
    EXPECT_NE(served_row.find(",poisson,"), std::string::npos);
}

} // anonymous namespace
} // namespace sgcn
