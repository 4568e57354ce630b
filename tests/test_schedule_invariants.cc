/**
 * @file
 * Property-style invariants over every LayerSchedule the simulator
 * can produce: for all six personalities x {Cora, Citeseer} x
 * {fast, timing}, every simulated layer's schedule must be
 * well-ordered, bounded by [0, criticalEnd()], agree with the
 * layer's cycle total, and carry well-formed per-tile availability
 * spans that cover the output-drain phase. These are the semantics
 * the inter-layer pipeline (both gating granularities) builds on;
 * this suite is what keeps them from silently rotting as schedules
 * get finer-grained.
 *
 * The fan-out case at the bottom runs the per-tile-gated pipeline
 * under jobs=2, so the binary carries the "thread" ctest label and
 * participates in the ThreadSanitizer CI job.
 */

#include <gtest/gtest.h>

#include <string>

#include "accel/layer_engine.hh"
#include "accel/personalities.hh"
#include "accel/runner.hh"
#include "fixtures.hh"

namespace sgcn
{
namespace
{

/** Every phase interval sits inside [0, criticalEnd()]. */
void
expectPhasesBounded(const LayerSchedule &s, const std::string &what)
{
    const Cycle end = s.criticalEnd();
    for (const PhaseSpan &span :
         {s.inputDma, s.aggregation, s.combination, s.outputDrain}) {
        EXPECT_TRUE(span.wellOrdered()) << what;
        EXPECT_LE(span.start, end) << what;
        EXPECT_LE(span.end, end) << what;
    }
}

/** The exhaustive per-tile-span property set. */
void
expectTileSpansWellFormed(const LayerSchedule &s,
                          const std::string &what)
{
    ASSERT_FALSE(s.tileSpans.empty()) << what;
    EXPECT_TRUE(s.tileSpansWellFormed()) << what;

    Cycle prev_consume_start = 0;
    Cycle prev_ready = s.outputDrain.start;
    for (std::size_t t = 0; t < s.tileSpans.size(); ++t) {
        const TileSpan &span = s.tileSpans[t];
        const std::string tile_what =
            what + " tile " + std::to_string(t);

        // Consecutively numbered, in production order.
        EXPECT_EQ(span.tile, t) << tile_what;

        // Consume windows: well-ordered, monotone starts, within
        // the layer.
        EXPECT_TRUE(span.inputConsume.wellOrdered()) << tile_what;
        EXPECT_GE(span.inputConsume.start, prev_consume_start)
            << tile_what;
        EXPECT_LE(span.inputConsume.end, s.criticalEnd())
            << tile_what;

        // Output readiness: monotone and covering the output-drain
        // phase (no tile ready before the drain begins or after it
        // ends), never before the tile's input was first read.
        EXPECT_GE(span.outputReady, prev_ready) << tile_what;
        EXPECT_GE(span.outputReady, s.outputDrain.start) << tile_what;
        EXPECT_LE(span.outputReady, s.outputDrain.end) << tile_what;
        EXPECT_GE(span.outputReady, span.inputConsume.start)
            << tile_what;

        prev_consume_start = span.inputConsume.start;
        prev_ready = span.outputReady;
    }

    // The final tile's readiness is the double-buffer swap point.
    EXPECT_EQ(s.tileSpans.back().outputReady, s.outputDrain.end)
        << what;
}

void
expectScheduleInvariants(const LayerResult &layer,
                         const AccelConfig &config,
                         const std::string &what)
{
    const LayerSchedule &s = layer.schedule;

    // Phases: ordered, bounded, and anchored by the weight-prefetch
    // input-DMA prefix.
    EXPECT_TRUE(s.wellOrdered()) << what;
    expectPhasesBounded(s, what);
    EXPECT_EQ(s.inputDma.start, 0u) << what;
    EXPECT_GT(s.inputDma.end, 0u) << what;
    EXPECT_GT(s.firstFeatureRead(), 0u) << what;
    EXPECT_LE(s.computeStart(), s.computeEnd()) << what;
    EXPECT_GE(s.outputDrain.start, s.aggregation.start) << what;

    // Schedule and totals cannot drift apart: the latest phase end
    // is exactly the layer's cycle count, and the output buffer
    // swaps exactly at the layer end.
    EXPECT_EQ(s.criticalEnd(), layer.cycles) << what;
    EXPECT_EQ(s.outputReadyAt(), layer.cycles) << what;

    expectTileSpansWellFormed(s, what);

    // The streaming-consumer flag matches the dataflow: row-product
    // aggregation gathers arbitrary rows (false), the comb-first and
    // column-product streams read in vertex order (true).
    const bool streaming =
        config.dataflow != DataflowKind::AggFirstRowProduct;
    EXPECT_EQ(s.sequentialInput, streaming) << what;
}

struct ScheduleInvariants : ::testing::Test
{
    NetworkSpec net;
    RunOptions opts;

    void
    SetUp() override
    {
        opts.sampledIntermediateLayers = 2;
    }
};

TEST_F(ScheduleInvariants, AllPersonalitiesDatasetsAndModes)
{
    for (const char *abbrev : {"CR", "CS"}) {
        const Dataset dataset = testfx::datasetFixture(abbrev);
        for (const AccelConfig &config : allPersonalities()) {
            for (ExecutionMode mode :
                 {ExecutionMode::Fast, ExecutionMode::Timing}) {
                RunOptions mode_opts = opts;
                mode_opts.mode = mode;
                const RunResult run =
                    runNetwork(config, dataset, net, mode_opts);
                const std::string label =
                    config.name + std::string("/") + abbrev +
                    (mode == ExecutionMode::Timing ? "/timing"
                                                   : "/fast");
                // The input layer may run a different dataflow than
                // the configured kind (SIII-A): judge its flag by
                // what actually executed.
                AccelConfig input_config = config;
                input_config.dataflow = LayerEngine::effectiveDataflow(
                    config, /*is_input_layer=*/true);
                expectScheduleInvariants(run.inputLayer, input_config,
                                         label + " input");
                for (const auto &layer : run.sampledLayers)
                    expectScheduleInvariants(
                        layer, config, label + " intermediate");
            }
        }
    }
}

TEST_F(ScheduleInvariants, CombFirstIntermediateLayersToo)
{
    // The comb-first dataflow only appears on input layers in the
    // builtin personalities; sweep it as an intermediate layer
    // explicitly so its schedule path cannot rot unnoticed.
    const AccelConfig config = testfx::combFirstPersonality();
    const Dataset cora = testfx::cora();
    for (ExecutionMode mode :
         {ExecutionMode::Fast, ExecutionMode::Timing}) {
        RunOptions mode_opts = opts;
        mode_opts.mode = mode;
        const RunResult run = runNetwork(config, cora, net, mode_opts);
        for (const auto &layer : run.sampledLayers)
            expectScheduleInvariants(
                layer, config,
                mode == ExecutionMode::Timing ? "comb-first/timing"
                                              : "comb-first/fast");
    }
}

TEST_F(ScheduleInvariants, SchedulesSurviveTiledFanOut)
{
    // Schedules produced inside the jobs=2 fan-out with per-tile
    // gating must be the same well-formed schedules the serial path
    // produces (this is the TSan CI job's window into the new
    // gating machinery).
    const Dataset cora = testfx::cora();
    const auto configs = allPersonalities();
    RunOptions tiled = opts;
    tiled.pipeline = PipelineGating::PerTile;
    RunOptions fanned = tiled;
    fanned.jobs = 2;

    const auto expected = runAll(configs, cora, net, tiled);
    const auto actual = runAll(configs, cora, net, fanned);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        const std::string label = configs[i].name;
        expectScheduleInvariants(actual[i].inputLayer,
                                 [&] {
                                     AccelConfig c = configs[i];
                                     c.dataflow =
                                         LayerEngine::effectiveDataflow(
                                             c, true);
                                     return c;
                                 }(),
                                 label + " fan-out input");
        ASSERT_EQ(actual[i].sampledLayers.size(),
                  expected[i].sampledLayers.size());
        for (std::size_t l = 0; l < actual[i].sampledLayers.size();
             ++l) {
            expectScheduleInvariants(actual[i].sampledLayers[l],
                                     configs[i],
                                     label + " fan-out intermediate");
            // Bit-identical to the serial fan-out, span for span.
            const auto &a =
                actual[i].sampledLayers[l].schedule.tileSpans;
            const auto &e =
                expected[i].sampledLayers[l].schedule.tileSpans;
            ASSERT_EQ(a.size(), e.size());
            for (std::size_t t = 0; t < a.size(); ++t) {
                EXPECT_EQ(a[t].outputReady, e[t].outputReady);
                EXPECT_EQ(a[t].inputConsume.start,
                          e[t].inputConsume.start);
                EXPECT_EQ(a[t].inputConsume.end,
                          e[t].inputConsume.end);
            }
        }
        EXPECT_EQ(actual[i].total.cycles, expected[i].total.cycles);
    }
}

} // namespace
} // namespace sgcn
