/**
 * @file
 * Shared test fixtures and comparison helpers.
 *
 * The Cora/Citeseer personality fixtures (and the "every count is
 * bit-identical" expectations) used to be duplicated across
 * test_dataflow_parity.cc, test_pipeline.cc, test_parallel_runner.cc
 * and now the schedule-invariant suite; they live here so a fixture
 * change cannot silently diverge between suites.
 */

#ifndef SGCN_TESTS_FIXTURES_HH
#define SGCN_TESTS_FIXTURES_HH

#include <gtest/gtest.h>

#include "accel/personalities.hh"
#include "accel/report.hh"
#include "accel/result.hh"
#include "graph/datasets.hh"

namespace sgcn::testfx
{

/** Default instantiation scale of the test datasets: small enough
 *  for timing-mode sweeps, large enough for non-trivial tiling. */
constexpr double kDefaultScale = 0.08;

/** The small Cora fixture. */
inline Dataset
cora(double scale = kDefaultScale)
{
    return instantiateDataset(datasetByAbbrev("CR"), scale);
}

/** The small Citeseer fixture. */
inline Dataset
citeseer(double scale = kDefaultScale)
{
    return instantiateDataset(datasetByAbbrev("CS"), scale);
}

/** The test dataset for @p abbrev ("CR" or "CS"). */
inline Dataset
datasetFixture(const char *abbrev, double scale = kDefaultScale)
{
    return instantiateDataset(datasetByAbbrev(abbrev), scale);
}

/** An SGCN personality flipped to the combination-first dataflow:
 *  the streaming consumer the per-tile pipeline gates finest. */
inline AccelConfig
combFirstPersonality()
{
    AccelConfig config = makeSgcn();
    config.dataflow = DataflowKind::CombFirstRowProduct;
    return config;
}

/** Work counts (traffic and every LayerResult::kCounters entry)
 *  are bit-identical. */
inline void
expectCountsIdentical(const LayerResult &a, const LayerResult &b)
{
    for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
        EXPECT_EQ(a.traffic.readLines[c], b.traffic.readLines[c]);
        EXPECT_EQ(a.traffic.writeLines[c], b.traffic.writeLines[c]);
    }
    for (std::uint64_t LayerResult::*counter : LayerResult::kCounters)
        EXPECT_EQ(a.*counter, b.*counter);
}

/** Every layer quantity — counts and cycles — is bit-identical. */
inline void
expectLayerIdentical(const LayerResult &a, const LayerResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.aggCycles, b.aggCycles);
    EXPECT_EQ(a.combCycles, b.combCycles);
    expectCountsIdentical(a, b);
    // Doubles compare exactly: identical inputs through identical
    // arithmetic must give identical bits, threads or not.
    EXPECT_EQ(a.bwUtil, b.bwUtil);
}

/** Whole runs are bit-identical, layer by layer. */
inline void
expectRunIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.accelName, b.accelName);
    EXPECT_EQ(a.datasetAbbrev, b.datasetAbbrev);
    expectLayerIdentical(a.total, b.total);
    expectLayerIdentical(a.inputLayer, b.inputLayer);
    ASSERT_EQ(a.sampledLayers.size(), b.sampledLayers.size());
    for (std::size_t i = 0; i < a.sampledLayers.size(); ++i)
        expectLayerIdentical(a.sampledLayers[i], b.sampledLayers[i]);
    EXPECT_EQ(a.energy.computeJ, b.energy.computeJ);
    EXPECT_EQ(a.energy.cacheJ, b.energy.cacheJ);
    EXPECT_EQ(a.energy.dramJ, b.energy.dramJ);
    EXPECT_EQ(a.tdpWatts, b.tdpWatts);
    EXPECT_EQ(a.areaMm2, b.areaMm2);
}

/** Every exported metric is identical: each field of the report's
 *  field tables, compared as a typed value (doubles exactly), plus
 *  the vectors the tables do not export. */
inline void
expectMetricsIdentical(const RunResult &a, const RunResult &b)
{
    for (const MetricBlock &block : metricBlocks()) {
        EXPECT_EQ(block.enabled(a), block.enabled(b));
        for (const MetricField &field : block.fields) {
            EXPECT_EQ(field.value(a), field.value(b))
                << (field.csv ? field.csv : field.stat);
        }
    }
    EXPECT_EQ(a.faults.recoveredLayers, b.faults.recoveredLayers);
    EXPECT_EQ(a.shard.chipCycles, b.shard.chipCycles);
    EXPECT_EQ(a.shard.chipIds, b.shard.chipIds);
}

} // namespace sgcn::testfx

#endif // SGCN_TESTS_FIXTURES_HH
