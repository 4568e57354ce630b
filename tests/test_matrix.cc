/**
 * @file
 * Property matrix: every accelerator personality on several
 * structurally distinct datasets must satisfy a set of invariants
 * (sane totals, consistent traffic composition, Table I flags).
 * These catch regressions anywhere in the stack.
 */

#include <gtest/gtest.h>

#include "accel/personalities.hh"
#include "accel/runner.hh"

namespace sgcn
{
namespace
{

class Matrix : public ::testing::TestWithParam<
                   std::tuple<std::string, std::string>>
{
  protected:
    RunResult
    run()
    {
        const auto [accel, abbrev] = GetParam();
        Dataset dataset =
            instantiateDataset(datasetByAbbrev(abbrev), 0.1);
        NetworkSpec net;
        RunOptions opts;
        opts.sampledIntermediateLayers = 2;
        return runNetwork(personalityByName(accel), dataset, net,
                          opts);
    }
};

TEST_P(Matrix, TotalsAreSane)
{
    const RunResult result = run();
    EXPECT_GT(result.total.cycles, 0u);
    EXPECT_GT(result.total.macs, 0u);
    EXPECT_GT(result.total.traffic.totalLines(), 0u);
    EXPECT_GE(result.total.cycles,
              std::max(result.inputLayer.aggCycles,
                       result.inputLayer.combCycles));
}

TEST_P(Matrix, TrafficCompositionIsComplete)
{
    const RunResult result = run();
    // Every run moves topology, features in both directions, and
    // weights.
    EXPECT_GT(result.total.traffic.classLines(TrafficClass::Topology),
              0u);
    EXPECT_GT(result.total.traffic.classLines(TrafficClass::FeatureIn),
              0u);
    EXPECT_GT(
        result.total.traffic.classLines(TrafficClass::FeatureOut), 0u);
    EXPECT_GT(result.total.traffic.classLines(TrafficClass::Weight),
              0u);
    // Class sums equal the total.
    std::uint64_t sum = 0;
    for (unsigned c = 0; c < kNumTrafficClasses; ++c)
        sum += result.total.traffic.classLines(
            static_cast<TrafficClass>(c));
    EXPECT_EQ(sum, result.total.traffic.totalLines());
}

TEST_P(Matrix, EnergyAndPowerInBand)
{
    const RunResult result = run();
    EXPECT_GT(result.energy.total(), 0.0);
    EXPECT_GT(result.energy.dramJ, 0.0);
    EXPECT_GT(result.tdpWatts, 4.0);
    EXPECT_LT(result.tdpWatts, 9.0);
    EXPECT_GT(result.areaMm2, 3.0);
    EXPECT_LT(result.areaMm2, 6.0);
}

TEST_P(Matrix, CacheBehaviourBounded)
{
    const RunResult result = run();
    EXPECT_GE(result.cacheHitRate(), 0.0);
    EXPECT_LE(result.cacheHitRate(), 1.0);
    EXPECT_LE(result.total.cacheHits, result.total.cacheAccesses);
    EXPECT_LE(result.total.bwUtil, 1.0);
}

TEST_P(Matrix, DeterministicRepetition)
{
    const RunResult a = run();
    const RunResult b = run();
    EXPECT_EQ(a.total.cycles, b.total.cycles);
    EXPECT_EQ(a.total.traffic.totalLines(),
              b.total.traffic.totalLines());
    EXPECT_EQ(a.total.macs, b.total.macs);
}

INSTANTIATE_TEST_SUITE_P(
    AllAccelsOnDatasets, Matrix,
    ::testing::Combine(
        ::testing::Values("GCNAX", "HyGCN", "AWB-GCN", "EnGN", "I-GCN",
                          "SGCN"),
        ::testing::Values("CR", "NL", "RD", "DB")),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) + "_" +
                           std::get<1>(info.param);
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------
// Table I: each personality's flags match the paper's feature matrix.
// ---------------------------------------------------------------------

TEST(TableI, PersonalityFlags)
{
    const AccelConfig sgcn = makeSgcn();
    EXPECT_EQ(sgcn.dataflow, DataflowKind::AggFirstRowProduct);
    EXPECT_EQ(sgcn.format, FormatKind::Beicsr);
    EXPECT_TRUE(sgcn.sac);
    EXPECT_EQ(sgcn.sliceC, 96u);
    EXPECT_EQ(sgcn.sacStripHeight, 32u);

    const AccelConfig gcnax = makeGcnax();
    EXPECT_EQ(gcnax.format, FormatKind::Dense);
    EXPECT_TRUE(gcnax.topologyTiling);
    EXPECT_FALSE(gcnax.sac);

    const AccelConfig hygcn = makeHygcn();
    EXPECT_EQ(hygcn.dataflow, DataflowKind::AggFirstRowProduct);
    EXPECT_FALSE(hygcn.topologyTiling);

    const AccelConfig awb = makeAwbGcn();
    EXPECT_EQ(awb.dataflow, DataflowKind::ColumnProduct);
    EXPECT_TRUE(awb.zeroSkipCombination);
    EXPECT_EQ(awb.format, FormatKind::Dense);

    const AccelConfig engn = makeEngn();
    EXPECT_TRUE(engn.davc);

    const AccelConfig igcn = makeIgcn();
    EXPECT_TRUE(igcn.islandReorder);
}

TEST(TableI, DescribeMentionsKeyKnobs)
{
    const std::string text = makeSgcn().describe();
    EXPECT_NE(text.find("BEICSR"), std::string::npos);
    EXPECT_NE(text.find("C=96"), std::string::npos);
    EXPECT_NE(text.find("strip 32"), std::string::npos);
    EXPECT_NE(text.find("512 KB"), std::string::npos);
    EXPECT_NE(text.find("HBM2"), std::string::npos);
}

TEST(TableI, SystemConfigurationDefaults)
{
    // Table III values.
    const AccelConfig config = makeSgcn();
    EXPECT_EQ(config.aggEngines, 8u);
    EXPECT_EQ(config.combEngines, 8u);
    EXPECT_EQ(config.simdLanes, 16u);
    EXPECT_EQ(config.systolic.rows, 32u);
    EXPECT_EQ(config.systolic.cols, 32u);
    EXPECT_EQ(config.cache.sizeBytes, 512u * 1024);
    EXPECT_EQ(config.cache.ways, 16u);
    EXPECT_EQ(config.dram.channels, 8u);
    EXPECT_DOUBLE_EQ(config.dram.peakBytesPerCycle(), 256.0);
}

} // namespace
} // namespace sgcn
