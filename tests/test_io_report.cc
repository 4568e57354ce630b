/**
 * @file
 * Unit tests for graph file I/O (edge lists, binary CSR snapshots)
 * and the machine-readable result export.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "accel/personalities.hh"
#include "accel/report.hh"
#include "accel/runner.hh"
#include "graph/generators.hh"
#include "graph/io.hh"

namespace sgcn
{
namespace
{

struct TempFile
{
    std::string path;

    explicit TempFile(const char *suffix)
        : path(std::string("/tmp/sgcn_test_") +
               std::to_string(::getpid()) + suffix)
    {
    }

    ~TempFile() { std::remove(path.c_str()); }
};

TEST(GraphIo, EdgeListRoundTrip)
{
    CsrGraph graph = clusteredGraph({.vertices = 300, .seed = 71});
    TempFile file(".edges");
    ASSERT_TRUE(saveEdgeList(graph, file.path).ok());
    // Saved edges include both directions; load as directed to avoid
    // doubling, self loops are re-added by the constructor.
    CsrGraph loaded =
        loadEdgeList(file.path, graph.numVertices(), false).value();
    EXPECT_EQ(loaded.numVertices(), graph.numVertices());
    EXPECT_EQ(loaded.numEdges(), graph.numEdges());
    EXPECT_EQ(loaded.columnIndices(), graph.columnIndices());
    EXPECT_EQ(loaded.rowPointers(), graph.rowPointers());
}

TEST(GraphIo, EdgeListParsesCommentsAndGaps)
{
    TempFile file(".edges");
    {
        std::ofstream out(file.path);
        out << "# a comment\n"
               "0 1\n"
               "\n"
               "% another comment\n"
               "2 0\n";
    }
    CsrGraph graph = loadEdgeList(file.path).value();
    EXPECT_EQ(graph.numVertices(), 3u);
    EXPECT_EQ(graph.numEdgesNoSelfLoops(), 4u); // undirected
}

TEST(GraphIo, BinarySnapshotRoundTrip)
{
    CsrGraph graph = clusteredGraph({.vertices = 500, .seed = 73});
    TempFile file(".csr");
    ASSERT_TRUE(saveCsrBinary(graph, file.path).ok());
    CsrGraph loaded = loadCsrBinary(file.path).value();
    EXPECT_EQ(loaded.numVertices(), graph.numVertices());
    EXPECT_EQ(loaded.columnIndices(), graph.columnIndices());
    EXPECT_EQ(loaded.rowPointers(), graph.rowPointers());
    // Normalized weights rebuilt identically.
    for (VertexId v = 0; v < 500; v += 61) {
        const auto a = graph.weights(v);
        const auto b = loaded.weights(v);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_FLOAT_EQ(a[i], b[i]);
    }
}

TEST(GraphIo, DeclaredVertexCountOverridesMax)
{
    TempFile file(".edges");
    {
        std::ofstream out(file.path);
        out << "0 1\n";
    }
    CsrGraph graph = loadEdgeList(file.path, 10).value();
    EXPECT_EQ(graph.numVertices(), 10u);
}

// ---------------------------------------------------------------------
// Result export
// ---------------------------------------------------------------------

struct ReportFixture : ::testing::Test
{
    RunResult
    smallRun()
    {
        Dataset cora = instantiateDataset(datasetByAbbrev("CR"), 0.08);
        NetworkSpec net;
        RunOptions opts;
        opts.sampledIntermediateLayers = 1;
        return runNetwork(makeSgcn(), cora, net, opts);
    }
};

/** A run with every block filled by hand, so the export bytes below
 *  depend on this file alone: counts past 10^6, reals that print
 *  with default precision, and a multi-clause fault spec. */
RunResult
handBuiltRun()
{
    RunResult run;
    run.accelName = "SGCN";
    run.datasetAbbrev = "PM";
    run.total.cycles = 2875871;
    run.total.aggCycles = 1000003;
    run.total.combCycles = 1875868;
    for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
        run.total.traffic.readLines[c] = 1000000 * (c + 1);
        run.total.traffic.writeLines[c] = c + 1;
    }
    run.total.cacheAccesses = 26120221;
    run.total.cacheHits = 13060110;
    run.total.macs = 123456789012;
    run.total.dramRetries = 7;
    run.total.bwUtil = 0.123456789;
    run.energy = {1.0 / 3.0, 0.25, 2.5e-7};
    run.tdpWatts = 6.5;
    run.areaMm2 = 1234567.0;

    PipelineStats &p = run.pipeline;
    p.enabled = true;
    p.gating = PipelineGating::PerTile;
    p.serialCycles = 3000000;
    p.pipelinedCycles = 2875871;
    p.overlapSavedCycles = 124129;
    p.perLayerCycles = 2900000;
    p.perTileCycles = 2875871;
    p.tileSavedCycles = 24129;
    p.steadyStateAdvance = 95862;
    p.criticalPhase = LayerPhase::Combination;

    ShardStats &s = run.shard;
    s.enabled = true;
    s.chips = 4;
    s.partitionPolicy = "edge-balanced";
    s.linkName = "NoC";
    s.haloVertices = 4321;
    s.exchangeBytes = 9876543210;
    s.exchangeCycles = 54321;
    s.linkBusyCycles = 43210;
    s.linkBusyFraction = 2.0 / 3.0;
    s.chipCycles = {2800000, 2700000, 2600000};
    s.chipIds = {0, 2, 3};
    s.bottleneckChipCycles = 2800000;

    FaultStats &f = run.faults;
    f.enabled = true;
    f.spec = "link-degrade:chip1:0.5,dram-retry:0.01,seed:42";
    f.seed = 42;
    f.degradedMode = "repartition";
    f.linkRetries = 12;
    f.backoffCycles = 3400;
    f.timeouts = 1;
    f.dramRetries = 7;
    f.stallCycles = 5000;
    f.recoveryCycles = 6000;
    f.failedChips = 1;
    f.survivingChips = 3;
    f.repartitions = 1;
    f.recoveredLayers = {2, 3};

    ServeStats &v = run.serve;
    v.enabled = true;
    v.requests = 4096;
    v.batches = 1024;
    v.offeredQps = 2000.0;
    v.poisson = true;
    v.maxBatch = 8;
    v.maxLingerCycles = 50000;
    v.p50Cycles = 100000;
    v.p95Cycles = 2000000;
    v.p99Cycles = 3000000;
    v.sustainedQps = 1999.5;
    v.meanOccupancy = 4.0;
    v.peakOccupancy = 8;
    v.makespanCycles = 2048000000;
    v.subgraphVertices = 123456;
    v.subgraphEdges = 7654321;
    return run;
}

/** The same shape with every optional block off. */
RunResult
handBuiltPlainRun()
{
    RunResult run;
    run.accelName = "GCNAX";
    run.datasetAbbrev = "CR";
    run.total.cycles = 1234;
    run.total.aggCycles = 500;
    run.total.combCycles = 700;
    for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
        run.total.traffic.readLines[c] = 10 * (c + 1);
        run.total.traffic.writeLines[c] = c + 1;
    }
    run.total.cacheAccesses = 900;
    run.total.cacheHits = 450;
    run.total.macs = 123456;
    run.total.bwUtil = 0.25;
    run.energy = {0.5, 0.25, 0.125};
    run.tdpWatts = 1.5;
    run.areaMm2 = 2.25;
    return run;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(RunsCsv, ExactBytesForEveryColumnSet)
{
    const std::string header =
        "accel,dataset,cycles,agg_cycles,comb_cycles,lines_total,"
        "lines_topology,lines_feature_in,lines_feature_out,"
        "lines_weight,lines_partial_sum,cache_accesses,cache_hits,"
        "macs,bw_util,energy_compute_j,energy_cache_j,energy_dram_j,"
        "tdp_w,area_mm2,pipelined,pipeline_gating,serial_cycles,"
        "overlap_saved_cycles,per_layer_cycles,per_tile_cycles,"
        "tile_saved_cycles,steady_advance_cycles,critical_phase,"
        "chips,partition_policy,link,halo_vertices,exchange_bytes,"
        "exchange_cycles,link_busy_cycles,link_busy_frac,"
        "bottleneck_chip_cycles";
    const std::string fault_header =
        ",faults,fault_spec,fault_seed,degraded_mode,link_retries,"
        "backoff_cycles,link_timeouts,dram_retries,stall_cycles,"
        "recovery_cycles,failed_chips,surviving_chips,repartitions";
    const std::string serve_header =
        ",serve_requests,serve_batches,serve_arrival,"
        "serve_offered_qps,serve_max_batch,serve_linger_cycles,"
        "serve_p50_cycles,serve_p95_cycles,serve_p99_cycles,"
        "serve_qps,serve_mean_batch,serve_peak_batch,"
        "serve_makespan_cycles,serve_subgraph_vertices,"
        "serve_subgraph_edges";

    // Blocks off: empty gating/phase cells, zero shard counts.
    const std::string plain =
        "GCNAX,CR,1234,500,700,165,11,22,33,44,55,900,450,123456,"
        "0.25,0.5,0.25,0.125,1.5,2.25,0,,0,0,0,0,0,0,,1,,,0,0,0,0,0,"
        "0";
    const std::string plain_fault = ",0,,0,,0,0,0,0,0,0,0,0,0";
    const std::string plain_serve = ",0,0,,0,0,0,0,0,0,0,0,0,0,0,0";
    // Every block on: integers exact, reals at default precision,
    // the fault spec's clause separators rewritten to ';'.
    const std::string full =
        "SGCN,PM,2875871,1000003,1875868,15000015,1000001,2000002,"
        "3000003,4000004,5000005,26120221,13060110,123456789012,"
        "0.123457,0.333333,0.25,2.5e-07,6.5,1.23457e+06,1,per-tile,"
        "3000000,124129,2900000,2875871,24129,95862,combination,4,"
        "edge-balanced,NoC,4321,9876543210,54321,43210,0.666667,"
        "2800000";
    const std::string full_fault =
        ",1,link-degrade:chip1:0.5;dram-retry:0.01;seed:42,42,"
        "repartition,12,3400,1,7,5000,6000,1,3,1";
    const std::string full_serve =
        ",4096,1024,poisson,2000,8,50000,100000,2000000,3000000,"
        "1999.5,4,8,2048000000,123456,7654321";

    const RunResult both = handBuiltRun();
    RunResult faulted = both;
    faulted.serve = {};
    RunResult served = both;
    served.faults = {};
    const RunResult clean = handBuiltPlainRun();

    struct Case
    {
        std::vector<RunResult> runs;
        std::string bytes;
    };
    const std::vector<Case> cases{
        {{clean}, header + "\n" + plain + "\n"},
        {{clean, faulted},
         header + fault_header + "\n" + plain + plain_fault + "\n" +
             full + full_fault + "\n"},
        {{served, clean},
         header + serve_header + "\n" + full + full_serve + "\n" +
             plain + plain_serve + "\n"},
        {{clean, both},
         header + fault_header + serve_header + "\n" + plain +
             plain_fault + plain_serve + "\n" + full + full_fault +
             full_serve + "\n"},
    };
    for (const Case &c : cases) {
        TempFile file(".csv");
        writeRunsCsv(c.runs, file.path);
        EXPECT_EQ(slurp(file.path), c.bytes);
    }
}

TEST_F(ReportFixture, CsvFileWritten)
{
    const RunResult run = smallRun();
    TempFile file(".csv");
    writeRunsCsv({run, run}, file.path);
    std::ifstream in(file.path);
    ASSERT_TRUE(in.good());
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u); // header + 2 rows
    const auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(lines[0]), commas(lines[1]));
    EXPECT_EQ(lines[1].rfind("SGCN,CR,", 0), 0u);
}

TEST_F(ReportFixture, MixedFaultSweepKeepsUniformRowArity)
{
    // A sweep mixing faulted and fault-free configs must emit the
    // fault columns for every row (zeros for the clean ones), never
    // ragged rows under one header.
    const RunResult clean = smallRun();
    Dataset cora = instantiateDataset(datasetByAbbrev("CR"), 0.08);
    NetworkSpec net;
    RunOptions opts;
    opts.sampledIntermediateLayers = 1;
    opts.chips = 4;
    opts.faults =
        FaultPlan::parse("link-degrade:chip1:0.5").orFatal();
    const RunResult faulted = runNetwork(makeSgcn(), cora, net, opts);
    ASSERT_TRUE(faulted.faults.enabled);

    TempFile file(".csv");
    writeRunsCsv({clean, faulted}, file.path);
    std::ifstream in(file.path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);
    const auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_NE(lines[0].find(",faults,"), std::string::npos);
    EXPECT_EQ(commas(lines[1]), commas(lines[0]));
    EXPECT_EQ(commas(lines[2]), commas(lines[0]));
    // The clean run's row carries the zero-filled fault columns.
    EXPECT_TRUE(lines[1].ends_with(",0,,0,,0,0,0,0,0,0,0,0,0"));
}

TEST_F(ReportFixture, FaultFreeSweepCsvStaysByteIdentical)
{
    // Without any injected run the CSV keeps its pre-fault shape:
    // rerunning the sweep writes byte-identical files with no fault
    // columns at all.
    const RunResult run = smallRun();
    TempFile first(".csv");
    TempFile second(".csv");
    writeRunsCsv({run, run}, first.path);
    writeRunsCsv({run, run}, second.path);
    const std::string a = slurp(first.path);
    EXPECT_EQ(a, slurp(second.path));
    EXPECT_EQ(a.find("faults"), std::string::npos);
    // The header ends with the shard block's last column.
    EXPECT_TRUE(a.substr(0, a.find('\n'))
                    .ends_with(",bottleneck_chip_cycles"));
}

TEST_F(ReportFixture, StatsFlattenConsistently)
{
    const RunResult run = smallRun();
    const std::map<std::string, MetricValue> stats = runResultStats(run);
    const auto count = [&](const std::string &key) {
        return std::get<std::uint64_t>(stats.at(key));
    };
    EXPECT_EQ(count("cycles"), run.total.cycles);
    EXPECT_EQ(count("offchip.lines"), run.total.traffic.totalLines());
    EXPECT_EQ(std::get<double>(stats.at("energy.total_j")),
              run.energy.total());
    // Class lines sum to the total.
    std::uint64_t class_sum = 0;
    for (unsigned c = 0; c < kNumTrafficClasses; ++c) {
        class_sum += count(
            std::string("offchip.lines.") +
            trafficClassName(static_cast<TrafficClass>(c)));
    }
    EXPECT_EQ(class_sum, count("offchip.lines"));
    // A run without optional blocks exports exactly the totals.
    std::vector<std::string> keys;
    for (const auto &[key, value] : stats)
        keys.push_back(key);
    EXPECT_EQ(keys, (std::vector<std::string>{
                        "area.mm2", "cache.accesses", "cache.hit_rate",
                        "cache.hits", "compute.macs", "cycles",
                        "cycles.aggregation", "cycles.combination",
                        "dram.bw_util", "energy.cache_j",
                        "energy.compute_j", "energy.dram_j",
                        "energy.total_j", "offchip.lines",
                        "offchip.lines.feature_in",
                        "offchip.lines.feature_out",
                        "offchip.lines.partial_sum",
                        "offchip.lines.topology",
                        "offchip.lines.weight", "power.tdp_w"}));
    // Counts past 10^6 print as exact decimals, not in e+ form.
    const std::string dump = statsDump(run);
    ASSERT_GE(run.total.macs, 1000000u);
    EXPECT_NE(dump.find("\ncompute.macs = " +
                        std::to_string(run.total.macs) + "\n"),
              std::string::npos);
    EXPECT_EQ(dump.find("e+"), std::string::npos);

    // Every block on: the whole key set, sorted, integers exact and
    // reals at default precision.
    EXPECT_EQ(statsDump(handBuiltRun(), "  "),
              "  area.mm2 = 1.23457e+06\n"
              "  cache.accesses = 26120221\n"
              "  cache.hit_rate = 0.5\n"
              "  cache.hits = 13060110\n"
              "  compute.macs = 123456789012\n"
              "  cycles = 2875871\n"
              "  cycles.aggregation = 1000003\n"
              "  cycles.combination = 1875868\n"
              "  dram.bw_util = 0.123457\n"
              "  energy.cache_j = 0.25\n"
              "  energy.compute_j = 0.333333\n"
              "  energy.dram_j = 2.5e-07\n"
              "  energy.total_j = 0.583334\n"
              "  fault.backoff_cycles = 3400\n"
              "  fault.dram_retries = 7\n"
              "  fault.failed_chips = 1\n"
              "  fault.link_retries = 12\n"
              "  fault.link_timeouts = 1\n"
              "  fault.recovered_layers = 2\n"
              "  fault.recovery_cycles = 6000\n"
              "  fault.repartitions = 1\n"
              "  fault.stall_cycles = 5000\n"
              "  fault.surviving_chips = 3\n"
              "  offchip.lines = 15000015\n"
              "  offchip.lines.feature_in = 2000002\n"
              "  offchip.lines.feature_out = 3000003\n"
              "  offchip.lines.partial_sum = 5000005\n"
              "  offchip.lines.topology = 1000001\n"
              "  offchip.lines.weight = 4000004\n"
              "  pipeline.overlap_saved_cycles = 124129\n"
              "  pipeline.per_layer_cycles = 2900000\n"
              "  pipeline.per_tile_cycles = 2875871\n"
              "  pipeline.serial_cycles = 3000000\n"
              "  pipeline.steady_advance_cycles = 95862\n"
              "  pipeline.tile_saved_cycles = 24129\n"
              "  power.tdp_w = 6.5\n"
              "  serve.batches = 1024\n"
              "  serve.makespan_cycles = 2048000000\n"
              "  serve.mean_batch = 4\n"
              "  serve.offered_qps = 2000\n"
              "  serve.p50_cycles = 100000\n"
              "  serve.p95_cycles = 2000000\n"
              "  serve.p99_cycles = 3000000\n"
              "  serve.peak_batch = 8\n"
              "  serve.requests = 4096\n"
              "  serve.subgraph_edges = 7654321\n"
              "  serve.subgraph_vertices = 123456\n"
              "  serve.sustained_qps = 1999.5\n"
              "  shard.bottleneck_chip_cycles = 2800000\n"
              "  shard.chips = 4\n"
              "  shard.exchange_bytes = 9876543210\n"
              "  shard.exchange_cycles = 54321\n"
              "  shard.halo_vertices = 4321\n"
              "  shard.link_busy_cycles = 43210\n"
              "  shard.link_busy_frac = 0.666667\n");
}

} // namespace
} // namespace sgcn
