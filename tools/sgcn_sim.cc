/**
 * @file
 * sgcn_sim: command-line front end for the simulator.
 *
 * Subcommands:
 *   run       simulate accelerators on a dataset, print/export results
 *   serve     drive a serving trace (open-loop arrivals, batching)
 *   sweep     sweep one knob (cache, engines, layers, slice) over runs
 *   describe  print a personality's Table-III-style configuration
 *   datasets  list the Table II registry and instantiated statistics
 *   generate  write a synthetic dataset graph to an edge-list file
 *
 * Examples:
 *   sgcn_sim run --dataset PM --accels SGCN,GCNAX --mode timing
 *   sgcn_sim run --dataset RD --csv out.csv
 *   sgcn_sim run --edge-list mygraph.txt --accels SGCN
 *   sgcn_sim serve --dataset CR --rate 2000 --requests 256
 *   sgcn_sim sweep --knob cache --dataset PM
 *   sgcn_sim describe --accel SGCN
 *   sgcn_sim generate --dataset DB --out dblp.edges
 */

#include <cstdio>
#include <sstream>

#include "accel/personalities.hh"
#include "accel/report.hh"
#include "accel/runner.hh"
#include "gcn/sparsity_model.hh"
#include "graph/io.hh"
#include "serve/serve.hh"
#include "sim/cli.hh"
#include "sim/table.hh"
#include "sim/thread_pool.hh"

using namespace sgcn;

namespace
{

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::stringstream stream(list);
    std::string item;
    while (std::getline(stream, item, ','))
        out.push_back(item);
    return out;
}

RunOptions
runOptions(const Cli &cli)
{
    RunOptions opts;
    const std::string mode = cli.getString("mode", "fast");
    if (mode != "fast" && mode != "timing")
        fatal("bad --mode '", mode, "' (expected fast|timing)");
    opts.mode = mode == "timing" ? ExecutionMode::Timing
                                 : ExecutionMode::Fast;
    opts.sampledIntermediateLayers = cli.getCount("sampled", 4, 1);
    opts.includeInputLayer = cli.getBool("input-layer", true);
    applyPipelineFlag(opts, cli.has("pipeline"),
                      cli.getString("pipeline", ""));
    opts.jobs = cli.getCount("jobs", hardwareJobs(), 0);
    opts.chips = cli.getCount("chips", 1, 1);
    opts.partitionPolicy = partitionPolicyByName(cli.getString(
        "partition", partitionPolicyName(opts.partitionPolicy)));
    if (cli.has("link"))
        opts.link = linkByName(cli.getString("link", "pcie4"));
    if (cli.has("faults")) {
        opts.faults =
            FaultPlan::parse(cli.getString("faults", "")).orFatal();
    }
    if (cli.has("degraded-mode")) {
        opts.degradedMode =
            parseDegradedMode(cli.getString("degraded-mode", ""))
                .orFatal();
    }
    return opts;
}

NetworkSpec
networkSpec(const Cli &cli)
{
    NetworkSpec net;
    net.layers = cli.getCount("layers", 28, 2);
    net.hidden = static_cast<unsigned>(cli.getInt("hidden", 256));
    net.residual = cli.getBool("residual", true);
    const std::string agg = cli.getString("agg", "gcn");
    if (agg == "gin") {
        net.agg = AggKind::Gin;
    } else if (agg == "sage") {
        net.agg = AggKind::Sage;
    } else if (agg != "gcn") {
        fatal("unknown --agg: ", agg, " (gcn|gin|sage)");
    }
    return net;
}

Dataset
datasetFromCli(const Cli &cli)
{
    const std::string edge_list = cli.getString("edge-list", "");
    if (!edge_list.empty()) {
        // User-provided topology; synthesize the rest of the spec.
        Dataset dataset{datasetByAbbrev("CR"),
                        loadEdgeList(edge_list).orFatal(), 0, 1.0};
        dataset.spec.name = "user-graph";
        dataset.spec.abbrev = "UG";
        dataset.inputWidth = static_cast<unsigned>(
            cli.getInt("input-width", 512));
        return dataset;
    }
    return instantiateDataset(
        datasetByAbbrev(cli.getString("dataset", "CR")), cli.scale());
}

std::vector<AccelConfig>
configsFromCli(const Cli &cli)
{
    std::vector<AccelConfig> configs;
    for (const std::string &name :
         splitCommas(cli.getString("accels", "GCNAX,SGCN"))) {
        AccelConfig config = personalityByName(name);
        config.cache.sizeBytes = static_cast<std::uint64_t>(
            cli.getInt("cache-kb",
                       static_cast<std::int64_t>(
                           config.cache.sizeBytes / 1024))) *
            1024;
        config.aggEngines = static_cast<unsigned>(
            cli.getInt("engines", config.aggEngines));
        config.combEngines = config.aggEngines;
        if (cli.getString("dram", "hbm2") == "hbm1")
            config.dram = DramConfig::hbm1();
        configs.push_back(std::move(config));
    }
    return configs;
}

int
cmdRun(const Cli &cli)
{
    const Dataset dataset = datasetFromCli(cli);
    const NetworkSpec net = networkSpec(cli);
    const RunOptions opts = runOptions(cli);
    const std::vector<AccelConfig> configs = configsFromCli(cli);

    std::printf("%s: %u vertices, %llu edges | %u-layer %s\n",
                dataset.spec.name, dataset.graph.numVertices(),
                static_cast<unsigned long long>(
                    dataset.graph.numEdges()),
                net.layers, aggKindName(net.agg));
    std::printf("graph: built in %.0f ms | %.1f MB CSR | "
                "%.2f B/edge adjacency\n\n",
                dataset.buildMillis,
                static_cast<double>(
                    dataset.graph.footprintBytes()) /
                    1e6,
                dataset.graph.adjacencyBytesPerEdge());
    if (opts.faults.active()) {
        // The canonical spec is the replay handle: feed it back via
        // --faults to reproduce this exact fault timeline.
        std::printf("faults: %s (degraded-mode %s)\n\n",
                    opts.faults.canonical().c_str(),
                    degradedModeName(opts.degradedMode));
    }

    Expected<std::vector<RunResult>> maybe_results =
        tryRunAll(configs, dataset, net, opts);
    if (!maybe_results.ok()) {
        std::fprintf(stderr, "sgcn_sim: %s\n",
                     maybe_results.error().message.c_str());
        return 1;
    }
    const std::vector<RunResult> results =
        std::move(maybe_results.value());

    Table table("results");
    table.header({"accel", "cycles", "offchip MB", "hit rate",
                  "GMACs", "energy mJ", "bw util"});
    for (const auto &run : results) {
        table.row({run.accelName,
                   std::to_string(run.total.cycles),
                   Table::num(run.total.traffic.totalBytes() / 1e6, 1),
                   Table::percent(run.cacheHitRate()),
                   Table::num(static_cast<double>(run.total.macs) / 1e9,
                              2),
                   Table::num(run.energy.total() * 1e3, 2),
                   Table::percent(run.total.bwUtil)});
    }
    table.print();

    if (opts.pipelined()) {
        std::printf("\n");
        for (const auto &run : results) {
            std::printf("%s\n",
                        pipelineSummaryLine(run).c_str());
        }
    }
    if (opts.chips > 1) {
        std::printf("\n");
        for (const auto &run : results)
            std::printf("%s\n", shardSummaryLine(run).c_str());
    }
    if (opts.faults.active()) {
        std::printf("\n");
        for (const auto &run : results)
            std::printf("%s\n", faultSummaryLine(run).c_str());
    }

    if (cli.has("stats")) {
        for (const auto &run : results) {
            std::printf("\n[%s/%s]\n", run.accelName.c_str(),
                        run.datasetAbbrev.c_str());
            std::fputs(runResultStats(run).dump("  ").c_str(), stdout);
        }
    }
    const std::string csv = cli.getString("csv", "");
    if (!csv.empty()) {
        writeRunsCsv(results, csv);
        std::printf("\nwrote %s\n", csv.c_str());
    }
    const std::string sched_csv = cli.getString("export-schedule", "");
    if (!sched_csv.empty()) {
        // Mirror the runner's sampling so the exported rows carry
        // the architectural layer indices they were simulated as.
        std::vector<unsigned> arch_layers;
        for (unsigned idx : sampleLayerIndices(
                 net.layers - 1, opts.sampledIntermediateLayers)) {
            arch_layers.push_back(idx + 1);
        }
        writeSchedulesCsv(results, arch_layers, sched_csv);
        std::printf("\nwrote %s\n", sched_csv.c_str());
    }
    return 0;
}

ServeOptions
serveOptions(const Cli &cli)
{
    ServeOptions serve;
    serve.offeredQps = cli.getDouble("rate", serve.offeredQps);
    serve.requests = static_cast<unsigned>(
        cli.getInt("requests", serve.requests));
    serve.maxBatch = static_cast<unsigned>(
        cli.getInt("batch-max", serve.maxBatch));
    serve.maxLingerCycles = static_cast<Cycle>(cli.getInt(
        "linger", static_cast<std::int64_t>(serve.maxLingerCycles)));
    serve.sample.hops = static_cast<unsigned>(
        cli.getInt("hops", serve.sample.hops));
    serve.sample.fanout = static_cast<unsigned>(
        cli.getInt("fanout", serve.sample.fanout));
    serve.sample.seed = static_cast<std::uint64_t>(cli.getInt(
        "serve-seed", static_cast<std::int64_t>(serve.sample.seed)));
    const std::string arrival = cli.getString("arrival", "poisson");
    if (arrival == "fixed")
        serve.poisson = false;
    else if (arrival != "poisson")
        fatal("bad --arrival '", arrival, "' (expected poisson|fixed)");
    return serve;
}

int
cmdServe(const Cli &cli)
{
    const Dataset dataset = datasetFromCli(cli);
    NetworkSpec net = networkSpec(cli);
    // The per-trace seed also keys the cached SAGE edge fractions,
    // so two serve traces with different seeds never share one.
    const RunOptions opts = runOptions(cli);
    const ServeOptions serve = serveOptions(cli);
    net.sageSeed = serve.sample.seed;
    const std::vector<AccelConfig> configs = configsFromCli(cli);

    std::printf("%s: %u vertices, %llu edges | %u-layer %s | "
                "serving %u requests (%s @ %.0f qps, batch<=%u, "
                "linger %llu cycles, %u-hop fanout %u)\n\n",
                dataset.spec.name, dataset.graph.numVertices(),
                static_cast<unsigned long long>(
                    dataset.graph.numEdges()),
                net.layers, aggKindName(net.agg), serve.requests,
                serve.poisson ? "poisson" : "fixed",
                serve.offeredQps, serve.maxBatch,
                static_cast<unsigned long long>(
                    serve.maxLingerCycles),
                serve.sample.hops, serve.sample.fanout);
    if (opts.faults.active()) {
        std::printf("faults: %s (degraded-mode %s, re-seeded per "
                    "batch)\n\n",
                    opts.faults.canonical().c_str(),
                    degradedModeName(opts.degradedMode));
    }

    Expected<std::vector<RunResult>> maybe_results =
        tryServeAll(configs, dataset, net, opts, serve);
    if (!maybe_results.ok()) {
        std::fprintf(stderr, "sgcn_sim: %s\n",
                     maybe_results.error().message.c_str());
        return 1;
    }
    const std::vector<RunResult> results =
        std::move(maybe_results.value());

    Table table("serving trace");
    table.header({"accel", "p50 us", "p95 us", "p99 us",
                  "sustained qps", "batches", "mean batch",
                  "peak"});
    const double us = kServeClockHz / 1.0e6; // cycles per microsecond
    for (const auto &run : results) {
        const ServeStats &s = run.serve;
        table.row({run.accelName,
                   Table::num(static_cast<double>(s.p50Cycles) / us, 1),
                   Table::num(static_cast<double>(s.p95Cycles) / us, 1),
                   Table::num(static_cast<double>(s.p99Cycles) / us, 1),
                   Table::num(s.sustainedQps, 0),
                   std::to_string(s.batches),
                   Table::num(s.meanOccupancy, 2),
                   std::to_string(s.peakOccupancy)});
    }
    table.print();

    std::printf("\n");
    for (const auto &run : results)
        std::printf("%s\n", serveSummaryLine(run).c_str());
    if (opts.faults.active()) {
        std::printf("\n");
        for (const auto &run : results)
            std::printf("%s\n", faultSummaryLine(run).c_str());
    }

    if (cli.has("stats")) {
        for (const auto &run : results) {
            std::printf("\n[%s/%s]\n", run.accelName.c_str(),
                        run.datasetAbbrev.c_str());
            std::fputs(runResultStats(run).dump("  ").c_str(), stdout);
        }
    }
    const std::string csv = cli.getString("csv", "");
    if (!csv.empty()) {
        writeRunsCsv(results, csv);
        std::printf("\nwrote %s\n", csv.c_str());
    }
    return 0;
}

int
cmdSweep(const Cli &cli)
{
    const Dataset dataset = datasetFromCli(cli);
    const NetworkSpec base_net = networkSpec(cli);
    const RunOptions opts = runOptions(cli);
    const std::string knob = cli.getString("knob", "cache");

    Table table("sweep: " + knob + " on " +
                std::string(dataset.spec.abbrev));
    table.header({knob, "GCNAX cycles", "SGCN cycles", "speedup"});

    // Queue the whole (knob value x accelerator) product, then fan
    // it out in one parallelFor so --jobs N uses the full pool
    // instead of two-wide pairs; rows are emitted from the
    // input-ordered result vector afterwards.
    struct SweepCell
    {
        AccelConfig config;
        NetworkSpec net;
    };
    std::vector<SweepCell> cells;
    std::vector<std::string> labels;
    auto queue_pair = [&](const AccelConfig &gcnax,
                          const AccelConfig &sgcn,
                          const NetworkSpec &net,
                          const std::string &label) {
        cells.push_back({gcnax, net});
        cells.push_back({sgcn, net});
        labels.push_back(label);
    };

    if (knob == "cache") {
        for (std::uint64_t kb : {256u, 512u, 1024u, 2048u, 4096u}) {
            AccelConfig gcnax = makeGcnax();
            AccelConfig sgcn = makeSgcn();
            gcnax.cache.sizeBytes = kb * 1024;
            sgcn.cache.sizeBytes = kb * 1024;
            queue_pair(gcnax, sgcn, base_net,
                       std::to_string(kb) + "KB");
        }
    } else if (knob == "engines") {
        for (unsigned engines : {1u, 2u, 4u, 8u, 16u, 32u}) {
            AccelConfig gcnax = makeGcnax();
            AccelConfig sgcn = makeSgcn();
            for (AccelConfig *config : {&gcnax, &sgcn}) {
                config->aggEngines = engines;
                config->combEngines = engines;
                config->cacheLinesPerCycle = engines;
            }
            queue_pair(gcnax, sgcn, base_net,
                       std::to_string(engines));
        }
    } else if (knob == "layers") {
        for (unsigned layers : {7u, 14u, 28u, 56u, 112u}) {
            NetworkSpec net = base_net;
            net.layers = layers;
            queue_pair(makeGcnax(), makeSgcn(), net,
                       std::to_string(layers));
        }
    } else if (knob == "slice") {
        for (std::uint32_t c : {32u, 64u, 96u, 128u, 256u}) {
            AccelConfig sgcn = makeSgcn();
            sgcn.sliceC = c;
            queue_pair(makeGcnax(), sgcn, base_net,
                       "C=" + std::to_string(c));
        }
    } else {
        fatal("unknown --knob: ", knob,
              " (cache|engines|layers|slice)");
    }

    std::vector<RunResult> runs(cells.size());
    parallelFor(opts.jobs, cells.size(), [&](std::size_t i) {
        runs[i] = runNetwork(cells[i].config, dataset, cells[i].net,
                             opts);
    });
    for (std::size_t k = 0; k < labels.size(); ++k) {
        const RunResult &a = runs[2 * k];
        const RunResult &b = runs[2 * k + 1];
        table.row({labels[k], std::to_string(a.total.cycles),
                   std::to_string(b.total.cycles),
                   Table::ratio(speedupOver(a, b))});
    }
    table.print();
    return 0;
}

int
cmdDescribe(const Cli &cli)
{
    const std::string name = cli.getString("accel", "SGCN");
    std::fputs(personalityByName(name).describe().c_str(), stdout);
    return 0;
}

int
cmdDatasets(const Cli &cli)
{
    Table table("Table II registry");
    table.header({"abbrev", "name", "full |V|", "full |E|", "width",
                  "sparsity@28", "inst |V|", "inst |E|"});
    for (const auto &spec : allDatasets()) {
        const Dataset dataset = instantiateDataset(spec, cli.scale());
        table.row({spec.abbrev, spec.name,
                   std::to_string(spec.fullVertices),
                   std::to_string(spec.fullEdges),
                   std::to_string(spec.inputFeatures),
                   Table::percent(spec.featureSparsity28),
                   std::to_string(dataset.graph.numVertices()),
                   std::to_string(
                       dataset.graph.numEdgesNoSelfLoops())});
    }
    table.print();
    return 0;
}

int
cmdGenerate(const Cli &cli)
{
    const Dataset dataset = datasetFromCli(cli);
    const std::string out =
        cli.getString("out", std::string(dataset.spec.abbrev) +
                                 ".edges");
    saveEdgeList(dataset.graph, out).orFatal();
    std::printf("wrote %s: %u vertices, %llu directed edges\n",
                out.c_str(), dataset.graph.numVertices(),
                static_cast<unsigned long long>(
                    dataset.graph.numEdgesNoSelfLoops()));
    return 0;
}

void
usage()
{
    std::fputs(
        "usage: sgcn_sim <run|serve|sweep|describe|datasets|generate> "
        "[flags]\n"
        "  run       --dataset CR|...|synth:<N>[:deg<D>] or "
        "--edge-list FILE; --accels A,B; --mode fast|timing;\n"
        "            (synth:200k, synth:1M:deg12, ... generate "
        "uncapped clustered graphs in parallel)\n"
        "            --layers N --hidden N --agg gcn|gin|sage "
        "--cache-kb N --engines N\n"
        "            --dram hbm1|hbm2 --csv FILE --stats "
        "--jobs N (default: all hardware threads)\n"
        "            --pipeline[=layer|tile] (overlap layers on one "
        "timeline; =tile gates on\n"
        "            per-tile output availability; see README "
        "\"Inter-layer pipelining\")\n"
        "            --chips N (shard over N chips; "
        "--partition contiguous|edge-balanced;\n"
        "            --link pcie4|noc; see README \"Multi-chip "
        "scale-out\")\n"
        "            --faults SPEC (deterministic fault injection, "
        "e.g. link-degrade:chip1:0.5,\n"
        "            chip-stall:chip0:5000@layer2, chip-fail:chip2, "
        "dram-retry:0.01, seed:<n>)\n"
        "            --degraded-mode repartition|fail-fast "
        "(reaction to chip-fail)\n"
        "            --export-schedule FILE (per-layer phase spans "
        "and tile windows as CSV)\n"
        "  serve     run-shaped flags plus --rate QPS --requests N "
        "--batch-max N --linger CYC\n"
        "            --arrival poisson|fixed --hops N --fanout N "
        "--serve-seed N (see README\n"
        "            \"Serving traces\": open-loop trace over "
        "per-request ego-network batches;\n"
        "            --faults plans replay as tail-latency tests)\n"
        "  sweep     --knob cache|engines|layers|slice --dataset ...\n"
        "  describe  --accel SGCN|GCNAX|HyGCN|AWB-GCN|EnGN|I-GCN\n"
        "  datasets  [--scale X]\n"
        "  generate  --dataset ... --out FILE\n",
        stderr);
}

/** Flags every dataset/run-shaped subcommand understands. */
std::vector<std::string>
sharedRunFlags()
{
    return {"dataset",     "edge-list", "input-width", "scale",
            "mode",        "sampled",   "input-layer", "pipeline",
            "jobs",        "chips",     "partition",   "link",
            "layers",      "hidden",    "residual",    "agg",
            "faults",      "degraded-mode"};
}

/** Reject flags the subcommand does not understand: exit 2 with the
 *  offenders named and the usage hint, instead of silently ignoring
 *  a typo like --chps 4. */
int
rejectUnknownFlags(const Cli &cli, const std::string &command,
                   std::vector<std::string> known)
{
    const std::vector<std::string> unknown = cli.unknownFlags(known);
    if (unknown.empty())
        return 0;
    for (const std::string &flag : unknown) {
        std::fprintf(stderr, "sgcn_sim %s: unknown flag --%s\n",
                     command.c_str(), flag.c_str());
    }
    usage();
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    if (cli.positional().size() != 1) {
        usage();
        return 2;
    }
    const std::string &command = cli.positional().front();
    std::vector<std::string> known = sharedRunFlags();
    if (command == "run") {
        for (const char *extra : {"accels", "cache-kb", "engines",
                                  "dram", "csv", "stats",
                                  "export-schedule"}) {
            known.push_back(extra);
        }
        if (int rc = rejectUnknownFlags(cli, command, known))
            return rc;
        return cmdRun(cli);
    }
    if (command == "serve") {
        for (const char *extra :
             {"accels", "cache-kb", "engines", "dram", "csv", "stats",
              "rate", "requests", "batch-max", "linger", "arrival",
              "hops", "fanout", "serve-seed"}) {
            known.push_back(extra);
        }
        if (int rc = rejectUnknownFlags(cli, command, known))
            return rc;
        return cmdServe(cli);
    }
    if (command == "sweep") {
        known.push_back("knob");
        if (int rc = rejectUnknownFlags(cli, command, known))
            return rc;
        return cmdSweep(cli);
    }
    if (command == "describe") {
        if (int rc = rejectUnknownFlags(cli, command, {"accel"}))
            return rc;
        return cmdDescribe(cli);
    }
    if (command == "datasets") {
        if (int rc = rejectUnknownFlags(cli, command, {"scale"}))
            return rc;
        return cmdDatasets(cli);
    }
    if (command == "generate") {
        known.push_back("out");
        if (int rc = rejectUnknownFlags(cli, command, known))
            return rc;
        return cmdGenerate(cli);
    }
    std::fprintf(stderr, "sgcn_sim: unknown command '%s'\n",
                 command.c_str());
    usage();
    return 2;
}
