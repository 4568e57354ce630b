/**
 * @file
 * Shared helpers for the figure/table regeneration harnesses.
 *
 * Every bench accepts:
 *   --mode fast|timing   execution mode (default fast)
 *   --layers N           architectural depth (default 28)
 *   --sampled N          simulated intermediate layers (default 4)
 *   --scale X            workload scale factor (or SGCN_BENCH_SCALE)
 *   --datasets CR,CS,... subset of datasets
 *   --jobs N             sweep worker threads (default: all hardware
 *                        threads; 1 restores the serial path)
 *   --pipeline[=layer|tile]
 *                        inter-layer overlapped totals (default off;
 *                        serial isolated-layer extrapolation). =tile
 *                        gates consumers on per-tile output
 *                        availability instead of whole-layer drains.
 *   --chips N            shard each run over N chips (default 1: one
 *                        shard holding the whole graph)
 *   --partition contiguous|edge-balanced
 *                        multi-chip vertex partitioner policy
 *   --link pcie4|noc     interconnect preset for halo exchanges
 *   --faults SPEC        deterministic fault plan (see FaultPlan);
 *                        the banner echoes the canonical spec so any
 *                        run can be replayed exactly
 *   --degraded-mode repartition|fail-fast
 *                        chip-fail reaction (default repartition)
 * plus the extra flags its main() passes to BenchOptions::fromCli.
 *
 * The flags are parsed by the library parser sgcn_sim uses
 * (serve/cli_options.hh), equally strictly: a flag the bench does not
 * accept exits 2 naming it and the accepted flags (--datsets CR never
 * silently sweeps all nine datasets), and a bad value — a negative
 * or out-of-range count, an unknown --mode, a non-numeric or
 * non-positive --scale / SGCN_BENCH_SCALE — exits 1.
 */

#ifndef SGCN_BENCH_BENCH_COMMON_HH
#define SGCN_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "accel/personalities.hh"
#include "accel/runner.hh"
#include "serve/cli_options.hh"
#include "sim/cli.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/table.hh"
#include "sim/thread_pool.hh"

namespace sgcn::bench
{

/** Options shared by every harness. */
struct BenchOptions
{
    RunOptions run;
    NetworkSpec net;
    double scale = 1.0;
    std::vector<DatasetSpec> datasets;

    /** Parse the shared flags plus the bench-specific @p extra
     *  ones the caller reads itself; exit 2 on any other flag. */
    static BenchOptions
    fromCli(const Cli &cli, std::vector<std::string> extra = {})
    {
        for (const std::string &flag : runFlags())
            extra.push_back(flag);
        for (const char *flag : {"layers", "scale", "datasets"})
            extra.push_back(flag);
        cli.requireKnownFlags(extra, cli.program());

        BenchOptions options;
        options.run = runOptionsFromCli(cli);
        options.net.layers = cli.getCount("layers", 28, 2);
        options.scale = cli.scale();

        const std::string list = cli.getString("datasets", "");
        if (list.empty()) {
            options.datasets = datasetsBySparsity();
        } else {
            std::stringstream stream(list);
            std::string abbrev;
            while (std::getline(stream, abbrev, ','))
                options.datasets.push_back(datasetByAbbrev(abbrev));
        }
        return options;
    }

    /** --datasets when given, else the one --dataset (default
     *  @p fallback) of a harness whose figure has a single subject. */
    std::vector<DatasetSpec>
    datasetsOr(const Cli &cli, const char *fallback) const
    {
        if (cli.has("datasets"))
            return datasets;
        return {datasetByAbbrev(cli.getString("dataset", fallback))};
    }
};

/** Print the standard harness banner. */
inline void
banner(const char *figure, const BenchOptions &options)
{
    std::printf("SGCN reproduction — %s\n", figure);
    std::printf("mode=%s layers=%u sampled=%u scale=%.2f "
                "(vertex cap %u) jobs=%u pipeline=%s\n\n",
                options.run.mode == ExecutionMode::Timing ? "timing"
                                                          : "fast",
                options.net.layers,
                options.run.sampledIntermediateLayers, options.scale,
                static_cast<unsigned>(
                    static_cast<double>(kDatasetVertexCap) *
                    options.scale),
                resolveJobs(options.run.jobs),
                !options.run.pipeline ? "off"
                : *options.run.pipeline == PipelineGating::PerTile
                    ? "tile"
                    : "layer");
    if (options.run.chips > 1) {
        std::printf("chips=%u partition=%s link=%s\n\n",
                    options.run.chips,
                    partitionPolicyName(options.run.partitionPolicy),
                    options.run.link.name);
    }
    if (options.run.faults.active()) {
        std::printf("faults=%s degraded-mode=%s\n\n",
                    options.run.faults.canonical().c_str(),
                    degradedModeName(options.run.degradedMode));
    }
}

/** One-line graph provenance: generation/build wall time plus the
 *  CSR memory the run will carry (packed adjacency bytes/edge). */
inline void
graphLine(const Dataset &dataset)
{
    std::printf("  %s graph: %u vertices, %llu edges | "
                "built %.0f ms | %.1f MB CSR | %.2f B/edge\n",
                dataset.spec.abbrev, dataset.graph.numVertices(),
                static_cast<unsigned long long>(
                    dataset.graph.numEdges()),
                dataset.buildMillis,
                static_cast<double>(
                    dataset.graph.footprintBytes()) /
                    1e6,
                dataset.graph.adjacencyBytesPerEdge());
}

/** Index of the personality named @p name, for pulling a baseline
 *  run back out of an input-ordered runAll result vector. */
inline std::size_t
personalityIndex(const std::vector<AccelConfig> &configs,
                 const std::string &name)
{
    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (configs[i].name == name)
            return i;
    }
    fatal("no personality named ", name, " in the sweep set");
}

} // namespace sgcn::bench

#endif // SGCN_BENCH_BENCH_COMMON_HH
