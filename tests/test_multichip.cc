/**
 * @file
 * The one run path, sharded over chips. The load-bearing contract:
 * a one-chip run is bit-identical to a hand-built replay of its
 * layers for every personality, dataset fixture, and execution mode,
 * and so is a run repartitioned onto one survivor; on top of that
 * sharded runs must be deterministic under the jobs>1 (layer, chip)
 * fan-out (this binary carries the "thread" ctest label and
 * runs under the ThreadSanitizer CI job), and the shard statistics
 * must be internally consistent.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "accel/layer_engine.hh"
#include "accel/personalities.hh"
#include "accel/runner.hh"
#include "accel/workload.hh"
#include "energy/energy_model.hh"
#include "fixtures.hh"
#include "gcn/sparsity_model.hh"
#include "graph/preprocess_cache.hh"

namespace sgcn
{
namespace
{

using testfx::expectRunIdentical;

struct MultiChip : ::testing::Test
{
    NetworkSpec net;
    RunOptions opts;

    void
    SetUp() override
    {
        opts.sampledIntermediateLayers = 2;
    }
};

/**
 * The run a single accelerator makes, rebuilt by hand: every layer
 * built over the whole graph with makeInputLayer /
 * makeIntermediateLayer and run alone with LayerEngine::run, the
 * sampled layers merged and scaled to the architectural depth, and
 * bandwidth and energy priced for one chip.
 */
RunResult
referenceReplay(const AccelConfig &config, const Dataset &dataset,
                const NetworkSpec &net, const RunOptions &opts)
{
    std::shared_ptr<const CsrGraph> reordered;
    const CsrGraph *graph = &dataset.graph;
    if (config.islandReorder) {
        reordered = PreprocessCache::instance().islandized(
            dataset.graph);
        graph = reordered.get();
    }
    const auto replay = [&](const LayerContext &ctx) {
        LayerEngine engine(config, ctx);
        return engine.run(opts.mode);
    };

    RunResult run;
    run.accelName = config.name;
    run.datasetAbbrev = dataset.spec.abbrev;
    run.inputLayer = replay(makeInputLayer(dataset, *graph, config, net));
    run.total.merge(run.inputLayer);
    const unsigned depth = net.layers - 1;
    const auto indices =
        sampleLayerIndices(depth, opts.sampledIntermediateLayers);
    LayerResult sampled;
    for (unsigned idx : indices) {
        run.sampledLayers.push_back(replay(
            makeIntermediateLayer(dataset, *graph, config, net, idx + 1)));
        sampled.merge(run.sampledLayers.back());
    }
    sampled.scale(static_cast<double>(depth) /
                  static_cast<double>(indices.size()));
    run.total.merge(sampled);
    run.total.bwUtil = std::min(
        1.0, static_cast<double>(run.total.traffic.totalLines()) *
                 config.dram.burstCycles /
                 (static_cast<double>(config.dram.channels) *
                  static_cast<double>(run.total.cycles)));

    const EnergyModel energy(
        {}, config.dram.generation == DramGeneration::Hbm1);
    RunCounts counts;
    counts.macs = run.total.macs;
    counts.cacheAccesses = run.total.cacheAccesses;
    counts.dramLines = run.total.traffic.totalLines();
    AccelDescriptor desc = config.energyDesc;
    desc.cacheKb = static_cast<double>(config.cache.sizeBytes) / 1024.0;
    run.energy = energy.dynamicEnergy(counts, desc.cacheKb);
    run.tdpWatts = energy.tdpWatts(desc);
    run.areaMm2 = energy.areaMm2(desc);
    return run;
}

TEST_F(MultiChip, OneChipRunMatchesTheReferenceReplay)
{
    for (const char *abbrev : {"CR", "CS"}) {
        const Dataset dataset = testfx::datasetFixture(abbrev);
        for (ExecutionMode mode :
             {ExecutionMode::Fast, ExecutionMode::Timing}) {
            RunOptions one_chip = opts;
            one_chip.mode = mode;
            for (const AccelConfig &config : allPersonalities()) {
                SCOPED_TRACE(std::string(abbrev) + " " + config.name);
                const RunResult run =
                    runNetwork(config, dataset, net, one_chip);
                expectRunIdentical(
                    referenceReplay(config, dataset, net, one_chip),
                    run);
                EXPECT_FALSE(run.shard.enabled);
            }
        }
    }
}

TEST_F(MultiChip, RepartitionOntoOneSurvivorRunsTheWholeGraph)
{
    const Dataset cora = testfx::cora();
    RunOptions degraded = opts;
    degraded.chips = 4;
    degraded.faults =
        FaultPlan::parse("chip-fail:chip0@layer0,chip-fail:chip1@layer0,"
                         "chip-fail:chip3@layer0")
            .value();
    for (const AccelConfig &config : allPersonalities()) {
        SCOPED_TRACE(config.name);
        const RunResult run = runNetwork(config, cora, net, degraded);
        const RunResult whole = referenceReplay(config, cora, net, opts);
        EXPECT_EQ(run.faults.failedChips, 3u);
        EXPECT_EQ(run.faults.survivingChips, 1u);
        EXPECT_EQ(run.faults.repartitions, 1u);
        EXPECT_TRUE(run.shard.enabled);
        EXPECT_EQ(run.shard.chipIds, std::vector<unsigned>{2});
        EXPECT_EQ(run.shard.exchangeBytes, 0u);
        // The survivor holds the whole graph with no halo: the input
        // layer is the reference layer plus the one-time recovery in
        // its exchange slot, and every later layer is the reference
        // layer exactly.
        testfx::expectCountsIdentical(run.inputLayer, whole.inputLayer);
        EXPECT_EQ(run.inputLayer.cycles,
                  whole.inputLayer.cycles + run.faults.recoveryCycles);
        ASSERT_EQ(run.sampledLayers.size(), whole.sampledLayers.size());
        for (std::size_t i = 0; i < run.sampledLayers.size(); ++i) {
            testfx::expectLayerIdentical(run.sampledLayers[i],
                                         whole.sampledLayers[i]);
        }
    }
}

TEST_F(MultiChip, ShardedChipFanOutIsDeterministic)
{
    const Dataset cora = testfx::cora();
    for (ExecutionMode mode :
         {ExecutionMode::Fast, ExecutionMode::Timing}) {
        for (const AccelConfig &config : allPersonalities()) {
            RunOptions serial = opts;
            serial.mode = mode;
            serial.chips = 4;
            serial.jobs = 1;
            RunOptions fanned = serial;
            fanned.jobs = 8;
            const RunResult a = runNetwork(config, cora, net, serial);
            const RunResult b = runNetwork(config, cora, net, fanned);
            expectRunIdentical(a, b);
            ASSERT_EQ(a.shard.chipCycles.size(),
                      b.shard.chipCycles.size());
            for (std::size_t c = 0; c < a.shard.chipCycles.size();
                 ++c) {
                EXPECT_EQ(a.shard.chipCycles[c],
                          b.shard.chipCycles[c]);
            }
            EXPECT_EQ(a.shard.exchangeBytes, b.shard.exchangeBytes);
            EXPECT_EQ(a.shard.exchangeCycles, b.shard.exchangeCycles);
        }
    }
}

TEST_F(MultiChip, ShardStatsAreInternallyConsistent)
{
    const Dataset cora = testfx::cora();
    RunOptions sharded = opts;
    sharded.chips = 4;
    sharded.jobs = 4;
    const RunResult run = runNetwork(makeSgcn(), cora, net, sharded);

    EXPECT_TRUE(run.shard.enabled);
    EXPECT_EQ(run.shard.chips, 4u);
    EXPECT_EQ(run.shard.partitionPolicy, "edge-balanced");
    EXPECT_EQ(run.shard.linkName, "PCIe4");
    ASSERT_EQ(run.shard.chipCycles.size(), 4u);
    EXPECT_GT(run.shard.haloVertices, 0u);
    EXPECT_GT(run.shard.exchangeBytes, 0u);
    EXPECT_GT(run.shard.exchangeCycles, 0u);
    EXPECT_GE(run.shard.exchangeCycles, run.shard.linkBusyCycles);
    EXPECT_GE(run.shard.linkBusyFraction, 0.0);
    EXPECT_LE(run.shard.linkBusyFraction, 1.0);
    EXPECT_EQ(run.shard.bottleneckChipCycles,
              *std::max_element(run.shard.chipCycles.begin(),
                                run.shard.chipCycles.end()));
    // The composed total covers the exchange plus the bottleneck
    // chips, so no chip's extrapolated cycles can exceed it.
    for (Cycle chip_cycles : run.shard.chipCycles)
        EXPECT_LE(chip_cycles, run.total.cycles);
}

TEST_F(MultiChip, NocLinkOutrunsPcieOnTheSamePartition)
{
    const Dataset cora = testfx::cora();
    RunOptions pcie = opts;
    pcie.chips = 4;
    RunOptions noc = pcie;
    noc.link = LinkConfig::noc();
    const RunResult a = runNetwork(makeSgcn(), cora, net, pcie);
    const RunResult b = runNetwork(makeSgcn(), cora, net, noc);
    // Same partition, same bytes; the wider, shorter-hop link
    // must spend strictly fewer cycles moving them.
    EXPECT_EQ(a.shard.exchangeBytes, b.shard.exchangeBytes);
    EXPECT_LT(b.shard.exchangeCycles, a.shard.exchangeCycles);
    EXPECT_LE(b.total.cycles, a.total.cycles);
}

TEST_F(MultiChip, ShardedPipelinedTotalsStayBounded)
{
    const Dataset cora = testfx::cora();
    RunOptions serial = opts;
    serial.chips = 4;
    RunOptions pipelined = serial;
    pipelined.pipeline = PipelineGating::PerTile;
    const RunResult base = runNetwork(makeSgcn(), cora, net, serial);
    const RunResult run =
        runNetwork(makeSgcn(), cora, net, pipelined);
    EXPECT_TRUE(run.pipeline.enabled);
    EXPECT_TRUE(run.shard.enabled);
    EXPECT_EQ(run.pipeline.serialCycles, base.total.cycles);
    EXPECT_LE(run.pipeline.pipelinedCycles,
              run.pipeline.serialCycles);
    EXPECT_LE(run.pipeline.perTileCycles,
              run.pipeline.perLayerCycles);
    // Work counts never change with pipelining, sharded or not.
    testfx::expectCountsIdentical(base.total, run.total);
}

} // namespace
} // namespace sgcn
