/**
 * @file
 * Tests for the sweep-level stream-artifact cache
 * (accel/stream_artifacts.hh, the PR 6 tentpole): warm runs must be
 * bit-identical to cold runs for every personality, artifacts must
 * compute once under the runAll jobs>1 fan-out, and keys must
 * separate every input that changes an artifact. Runs under the TSan
 * CI job (labelled `thread` in CMakeLists).
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "accel/personalities.hh"
#include "accel/runner.hh"
#include "accel/stream_artifacts.hh"
#include "fixtures.hh"
#include "graph/generators.hh"
#include "graph/preprocess_cache.hh"

namespace sgcn
{
namespace
{

CsrGraph
testGraph(std::uint64_t seed, VertexId vertices = 400)
{
    ClusteredGraphParams params;
    params.vertices = vertices;
    params.avgDegree = 6.0;
    params.seed = seed;
    return clusteredGraph(params);
}

TEST(StreamArtifacts, WarmRunsBitIdenticalPerPersonality)
{
    const Dataset dataset =
        instantiateDataset(datasetByAbbrev("CR"), 0.1);
    NetworkSpec net;
    net.layers = 4;
    RunOptions opts;
    opts.sampledIntermediateLayers = 1;

    for (const AccelConfig &config : allPersonalities()) {
        for (const ExecutionMode mode :
             {ExecutionMode::Fast, ExecutionMode::Timing}) {
            opts.mode = mode;
            clearSweepArtifacts();
            const RunResult cold =
                runNetwork(config, dataset, net, opts);
            EXPECT_GE(
                StreamArtifactCache::instance().stats().misses, 1u)
                << config.name;
            const RunResult warm =
                runNetwork(config, dataset, net, opts);
            EXPECT_GE(StreamArtifactCache::instance().stats().hits, 1u)
                << config.name;
            testfx::expectMetricsIdentical(cold, warm);
        }
    }
}

TEST(StreamArtifacts, SweepSharesArtifactsAcrossConfigs)
{
    const Dataset dataset =
        instantiateDataset(datasetByAbbrev("CR"), 0.1);
    NetworkSpec net;
    net.layers = 4;
    RunOptions opts;
    opts.sampledIntermediateLayers = 1;
    opts.mode = ExecutionMode::Fast;

    clearSweepArtifacts();
    const auto serial = runAll(allPersonalities(), dataset, net, opts);
    const ArtifactStats cold = StreamArtifactCache::instance().stats();
    // Six personalities ran; the artifact families must not have
    // computed six times over. The masks in particular are identical
    // across all personalities by construction, so hits dominate.
    EXPECT_GE(cold.hits, cold.misses);
    EXPECT_GT(StreamArtifactCache::instance().footprintBytes(), 0u);

    // A second sweep over resident artifacts recomputes nothing.
    const auto warm = runAll(allPersonalities(), dataset, net, opts);
    const ArtifactStats after = StreamArtifactCache::instance().stats();
    EXPECT_EQ(after.misses, cold.misses);
    ASSERT_EQ(serial.size(), warm.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        testfx::expectMetricsIdentical(serial[i], warm[i]);
}

TEST(StreamArtifacts, ComputeOnceUnderJobs)
{
    const Dataset dataset =
        instantiateDataset(datasetByAbbrev("CR"), 0.1);
    NetworkSpec net;
    net.layers = 4;
    RunOptions opts;
    opts.sampledIntermediateLayers = 1;
    opts.mode = ExecutionMode::Fast;

    clearSweepArtifacts();
    const auto serial = runAll(allPersonalities(), dataset, net, opts);
    const std::uint64_t serial_misses =
        StreamArtifactCache::instance().stats().misses;

    clearSweepArtifacts();
    opts.jobs = 4;
    const auto pooled = runAll(allPersonalities(), dataset, net, opts);
    // Concurrent configs block on one computation instead of
    // duplicating it (KeyedCache's shared_future discipline), so the
    // fan-out misses exactly as often as the serial sweep...
    EXPECT_EQ(StreamArtifactCache::instance().stats().misses,
              serial_misses);
    // ...and the results are the serial results, bit for bit.
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        testfx::expectMetricsIdentical(serial[i], pooled[i]);
}

TEST(StreamArtifacts, ConcurrentMaskLookupsComputeOnce)
{
    auto &artifacts = StreamArtifactCache::instance();
    clearSweepArtifacts();

    constexpr unsigned kThreads = 8;
    std::vector<StreamArtifactCache::MaskHandle> results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            results[t] = artifacts.randomMask(2000, 128, 0.85, 99);
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(results[t].mask.get(), results[0].mask.get());
    EXPECT_EQ(artifacts.stats().misses, 1u);
    EXPECT_EQ(artifacts.stats().hits, kThreads - 1);
}

TEST(StreamArtifacts, KeySeparation)
{
    auto &artifacts = StreamArtifactCache::instance();
    clearSweepArtifacts();

    // Masks: every parameter is part of the identity; equal
    // parameters share one instance.
    const auto base = artifacts.randomMask(100, 64, 0.9, 7);
    EXPECT_EQ(artifacts.randomMask(100, 64, 0.9, 7).mask.get(),
              base.mask.get());
    EXPECT_NE(artifacts.randomMask(101, 64, 0.9, 7).mask.get(),
              base.mask.get());
    EXPECT_NE(artifacts.randomMask(100, 65, 0.9, 7).mask.get(),
              base.mask.get());
    EXPECT_NE(artifacts.randomMask(100, 64, 0.91, 7).mask.get(),
              base.mask.get());
    EXPECT_NE(artifacts.randomMask(100, 64, 0.9, 8).mask.get(),
              base.mask.get());
    // Generator families never alias even at equal dimensions.
    EXPECT_NE(artifacts.fullMask(100, 64).mask.get(),
              base.mask.get());
    EXPECT_NE(artifacts.oneHotMask(100, 64, 7).mask.get(),
              base.mask.get());

    // Layouts: format, widths, density, base address, and the bound
    // mask all separate; equal inputs share.
    const auto layout = artifacts.preparedLayout(
        FormatKind::Beicsr, 64, 32, 0.1, 0, base);
    EXPECT_EQ(artifacts
                  .preparedLayout(FormatKind::Beicsr, 64, 32, 0.1, 0,
                                  base)
                  .get(),
              layout.get());
    EXPECT_NE(artifacts
                  .preparedLayout(FormatKind::Csr, 64, 32, 0.1, 0,
                                  base)
                  .get(),
              layout.get());
    EXPECT_NE(artifacts
                  .preparedLayout(FormatKind::Beicsr, 64, 16, 0.1, 0,
                                  base)
                  .get(),
              layout.get());
    EXPECT_NE(artifacts
                  .preparedLayout(FormatKind::Beicsr, 64, 32, 0.2, 0,
                                  base)
                  .get(),
              layout.get());
    EXPECT_NE(artifacts
                  .preparedLayout(FormatKind::Beicsr, 64, 32, 0.1,
                                  4096, base)
                  .get(),
              layout.get());
    const auto other_mask = artifacts.randomMask(100, 64, 0.9, 8);
    EXPECT_NE(artifacts
                  .preparedLayout(FormatKind::Beicsr, 64, 32, 0.1, 0,
                                  other_mask)
                  .get(),
              layout.get());

    // Views and degree orders: keyed by topology fingerprint (and
    // spans); distinct graphs and spans separate, identical content
    // shares even across distinct objects.
    const CsrGraph a = testGraph(1);
    const CsrGraph a_copy = testGraph(1);
    const CsrGraph b = testGraph(2);
    const auto ga = artifacts.canonicalGraph(a);
    EXPECT_EQ(artifacts.canonicalGraph(a_copy).get(), ga.get());
    const auto gb = artifacts.canonicalGraph(b);
    EXPECT_NE(ga.get(), gb.get());
    const auto view = artifacts.tiledView(ga, 128, 128);
    EXPECT_EQ(artifacts.tiledView(ga, 128, 128).get(), view.get());
    EXPECT_NE(artifacts.tiledView(ga, 128, 64).get(), view.get());
    EXPECT_NE(artifacts.tiledView(gb, 128, 128).get(), view.get());
    EXPECT_EQ(artifacts.degreeOrder(a).get(),
              artifacts.degreeOrder(a_copy).get());
    EXPECT_NE(artifacts.degreeOrder(a).get(),
              artifacts.degreeOrder(b).get());

    // SAGE fractions: per (topology, fanout, seed).
    const double fa = artifacts.sageEdgeFraction(a, 8);
    EXPECT_EQ(artifacts.sageEdgeFraction(a, 8), fa);
    EXPECT_NE(artifacts.sageEdgeFraction(a, 2), fa);

    // The sampling seed is part of the key: a seeded draw must not
    // be served the seed-0 analytic value (or another seed's draw)
    // from the cache. Equal seeds still share one entry.
    const double seeded = artifacts.sageEdgeFraction(a, 2, 7);
    EXPECT_EQ(artifacts.sageEdgeFraction(a, 2, 7), seeded);
    EXPECT_NE(artifacts.sageEdgeFraction(a, 2, 0), seeded);
    EXPECT_NE(artifacts.sageEdgeFraction(a, 2, 8), seeded);
    // A concrete with-replacement draw can only lose distinct
    // neighbours relative to the analytic bound.
    EXPECT_LT(seeded, artifacts.sageEdgeFraction(a, 2, 0));
    // Seed 0 stays the analytic expectation regardless of what the
    // seeded entries cached.
    EXPECT_EQ(artifacts.sageEdgeFraction(a, 2, 0),
              artifacts.sageEdgeFraction(a, 2));
}

TEST(StreamArtifacts, ReleaseArtifactsClearsBothCaches)
{
    const Dataset dataset =
        instantiateDataset(datasetByAbbrev("CR"), 0.1);
    NetworkSpec net;
    net.layers = 4;
    RunOptions opts;
    opts.sampledIntermediateLayers = 1;
    opts.mode = ExecutionMode::Fast;

    clearSweepArtifacts();
    runAll(allPersonalities(), dataset, net, opts);
    EXPECT_GT(StreamArtifactCache::instance().stats().entries, 0u);
    EXPECT_GT(PreprocessCache::instance().size(), 0u);

    // Handles handed out before the release stay valid.
    auto &artifacts = StreamArtifactCache::instance();
    const auto order = artifacts.degreeOrder(dataset.graph);

    opts.releaseArtifacts = true;
    const auto released =
        runAll(allPersonalities(), dataset, net, opts);
    EXPECT_EQ(StreamArtifactCache::instance().stats().entries, 0u);
    EXPECT_EQ(StreamArtifactCache::instance().footprintBytes(), 0u);
    EXPECT_EQ(PreprocessCache::instance().size(), 0u);
    EXPECT_EQ(order->size(), dataset.graph.numVertices());

    // A post-release sweep recomputes and still agrees exactly.
    opts.releaseArtifacts = false;
    const auto recomputed =
        runAll(allPersonalities(), dataset, net, opts);
    ASSERT_EQ(recomputed.size(), released.size());
    for (std::size_t i = 0; i < released.size(); ++i)
        testfx::expectMetricsIdentical(released[i], recomputed[i]);
}

} // namespace
} // namespace sgcn
