/**
 * @file
 * Unit tests of the benchmark: its strict command line, its output
 * checks, its metric output and its trace file.
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hh"
#include "cli.hh"
#include "report.hh"
#include "trace.hh"

using namespace perfbench;

namespace
{

sgcn::Expected<BenchArgs>
parse(std::vector<std::string> args)
{
    return parseArgs(args);
}

/** A two-layer result that passes every check. */
sgcn::RunResult
goodRun()
{
    sgcn::RunResult run;
    for (sgcn::LayerResult *layer : {&run.inputLayer, &run.total}) {
        layer->cycles = 100;
        layer->macs = 1000;
        layer->schedule.aggregation = {0, 60};
        layer->schedule.outputDrain = {60, 100};
    }
    run.sampledLayers.push_back(run.inputLayer);
    return run;
}

sgcn::RunResult
goodServe()
{
    sgcn::RunResult run;
    run.serve.enabled = true;
    run.serve.requests = 10;
    run.serve.batches = 4;
    run.serve.meanOccupancy = 2.5;
    run.serve.p50Cycles = 10;
    run.serve.p95Cycles = 20;
    run.serve.p99Cycles = 30;
    return run;
}

} // namespace

TEST(PerfbenchCli, AcceptsTheFullCommandLine)
{
    auto args = parse({"--workload", "scaleout", "--seed", "42",
                       "--seconds", "10", "--trace", "1"});
    ASSERT_TRUE(args.ok()) << args.error().message;
    EXPECT_EQ(args.value().workload, WorkloadKind::Scaleout);
    EXPECT_EQ(args.value().seed, 42u);
    EXPECT_EQ(args.value().seconds, 10u);
    EXPECT_TRUE(args.value().trace);

    args = parse({"--workload=serve-trace", "--seed=heldout"});
    ASSERT_TRUE(args.ok()) << args.error().message;
    EXPECT_EQ(args.value().seed, kHeldOutSeed);
    EXPECT_NE(kHeldOutSeed, kDefaultSeed);
    EXPECT_FALSE(args.value().trace);
}

TEST(PerfbenchCli, RejectsUnknownFlagsAndWorkloads)
{
    EXPECT_FALSE(parse({"--workload", "paper-sweep", "--datsets", "CR"}).ok());
    EXPECT_FALSE(parse({"--workload", "paper-swep"}).ok());
    EXPECT_FALSE(parse({"--seed", "1"}).ok());
    EXPECT_FALSE(parse({"--workload", "scaleout", "extra"}).ok());
    EXPECT_FALSE(
        parse({"--workload", "scaleout", "--workload", "scaleout"}).ok());
    EXPECT_FALSE(parse({"--workload", "scaleout", "--seed"}).ok());
}

TEST(PerfbenchCli, RejectsMalformedNumbers)
{
    for (const char *bad : {"", "-1", "1x", "0x10", " 1", "1.5",
                            "99999999999999999999"}) {
        EXPECT_FALSE(parse({"--workload", "scaleout", "--seed", bad}).ok())
            << "seed '" << bad << "'";
    }
    for (const char *bad : {"0", "-3", "ten", "3601", "2.5"}) {
        EXPECT_FALSE(
            parse({"--workload", "scaleout", "--seconds", bad}).ok())
            << "seconds '" << bad << "'";
    }
    for (const char *bad : {"2", "yes", "", "01"}) {
        EXPECT_FALSE(parse({"--workload", "scaleout", "--trace", bad}).ok())
            << "trace '" << bad << "'";
    }
}

TEST(PerfbenchChecks, GoodResultsPass)
{
    EXPECT_EQ(checkSchedules(goodRun()), "");
    EXPECT_EQ(checkModeMacs(goodRun(), goodRun()), "");
    EXPECT_EQ(checkServe(goodServe(), 10), "");
    EXPECT_EQ(checkRepeat(goodRun(), goodRun()), "");
}

TEST(PerfbenchChecks, ForcedFailuresRaiseTheErrorRate)
{
    sgcn::RunResult late_schedule = goodRun();
    late_schedule.sampledLayers[0].schedule.outputDrain.end = 120;

    sgcn::RunResult fewer_macs = goodRun();
    fewer_macs.total.macs -= 1;

    sgcn::RunResult unordered = goodServe();
    unordered.serve.p95Cycles = 40;

    sgcn::RunResult dropped = goodServe();
    dropped.serve.meanOccupancy = 2.0;

    sgcn::RunResult sharded = goodRun();
    sharded.shard.enabled = true;
    sharded.shard.chipCycles = {100, 90, 80};
    sharded.shard.bottleneckChipCycles = 100;

    sgcn::RunResult moved = goodRun();
    moved.total.traffic.readLines[0] = 7;

    CheckTally tally;
    tally.cell("good", checkSchedules(goodRun()));
    EXPECT_EQ(tally.errorRate(), 0.0);
    tally.cell("schedule", checkSchedules(late_schedule));
    tally.cell("macs", checkModeMacs(goodRun(), fewer_macs));
    tally.cell("percentiles", checkServe(unordered, 10));
    tally.cell("batched", checkServe(dropped, 10));
    tally.cell("too many batches", checkServe(goodServe(), 3));
    tally.cell("chips", checkShards(sharded, 4));
    tally.cell("repeat", checkRepeat(goodRun(), moved));
    EXPECT_EQ(tally.attempted(), 8u);
    EXPECT_EQ(tally.failed(), 7u);
    EXPECT_DOUBLE_EQ(tally.errorRate(), 7.0 / 8.0);
    EXPECT_EQ(tally.failures().size(), 7u);
}

TEST(PerfbenchReport, EveryMetricPrintsWithItsUnit)
{
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()}) {
        Report report;
        std::set<std::string> names;
        for (const MetricDef &def : *defs) {
            EXPECT_TRUE(names.insert(def.name).second) << def.name;
            EXPECT_FALSE(def.unit.empty()) << def.name;
            EXPECT_TRUE(def.better == "lower" || def.better == "higher");
            report.set(def.name, 1.25);
        }
        const std::string line = report.jsonLine(*defs, true, 3, 0);
        EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 3, "
                             "\"failed\": 0, \"metrics\": {",
                             0),
                  0u);
        for (const MetricDef &def : *defs) {
            EXPECT_NE(line.find("\"" + def.name +
                                "\": {\"value\": 1.25, \"unit\": \"" +
                                def.unit + "\"}"),
                      std::string::npos)
                << def.name;
        }
    }
    EXPECT_LE(perLayerMetrics().size(), 128u);
}

TEST(PerfbenchReport, MissingOrNonFiniteMetricIsABenchmarkBug)
{
    Report report;
    EXPECT_THROW(report.jsonLine(endToEndMetrics(), true, 1, 0),
                 std::logic_error);
    report.zeroUnset(endToEndMetrics());
    EXPECT_NO_THROW(report.jsonLine(endToEndMetrics(), true, 1, 0));
    report.set("wall_s", std::numeric_limits<double>::quiet_NaN());
    EXPECT_THROW(report.jsonLine(endToEndMetrics(), true, 1, 0),
                 std::logic_error);
}

TEST(PerfbenchTrace, SpansNestAcrossThreadsAndSerialize)
{
    Tracer tracer("scaleout/seed-1");
    {
        Span outer(&tracer, "runAll", "pool");
        std::thread worker([&] {
            Span inner(&tracer, "tryRunNetwork", "runner", outer.id(),
                       "CR \"SGCN\"");
        });
        worker.join();
    }
    Span disabled(nullptr, "ignored", "pool");
    EXPECT_EQ(disabled.id(), 0u);

    const std::vector<SpanRecord> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 2u);
    const SpanRecord &inner = spans[0];
    const SpanRecord &outer = spans[1];
    EXPECT_EQ(inner.parent, outer.id);
    EXPECT_NE(inner.thread, outer.thread);
    EXPECT_LE(outer.startUs, inner.startUs);
    EXPECT_LE(inner.endUs, outer.endUs);
    EXPECT_GE(tracer.totalMs("pool"), tracer.totalMs("runner"));

    const std::string json = tracer.chromeJson();
    EXPECT_EQ(json.rfind("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [",
                         0),
              0u);
    EXPECT_NE(json.find("\"name\": \"tryRunNetwork\", \"cat\": \"runner\", "
                        "\"ph\": \"X\""),
              std::string::npos);
    EXPECT_NE(json.find("\"parent\": " + std::to_string(outer.id)),
              std::string::npos);
    EXPECT_NE(json.find("\"run\": \"scaleout/seed-1\""), std::string::npos);
    EXPECT_NE(json.find("\"detail\": \"CR \\\"SGCN\\\"\""),
              std::string::npos);
}
