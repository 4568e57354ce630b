/**
 * @file
 * Fig. 18: SGCN speedup and DRAM bandwidth utilization vs the
 * number of engines (1-32), for HBM1 and HBM2.
 *
 * Paper anchors: near-linear scaling to ~8 engines, saturation
 * around 16 where the memory bandwidth runs out; HBM1 saturates
 * earlier at about half the speedup.
 *
 * With --chips N (N > 1) the harness switches to the multi-chip
 * scale-out sweep instead: chip counts 1..N (powers of two), one
 * sharded run each, reporting speedup over the monolithic run plus
 * the halo-exchange volume and link occupancy that bound it.
 *
 * --datasets CR,CS,... sweeps several datasets (one table each);
 * the legacy single --dataset flag still works and defaults to RD.
 */

#include "bench_common.hh"

using namespace sgcn;
using namespace sgcn::bench;

namespace
{

/** 1, 2, 4, ... capped at (and always including) @p max_chips. */
std::vector<unsigned>
chipCounts(unsigned max_chips)
{
    std::vector<unsigned> counts;
    for (unsigned c = 1; c < max_chips; c *= 2)
        counts.push_back(c);
    counts.push_back(max_chips);
    return counts;
}

void
chipSweep(const DatasetSpec &spec, const BenchOptions &options)
{
    const Dataset dataset = instantiateDataset(spec, options.scale);
    const std::vector<unsigned> counts = chipCounts(options.run.chips);

    Table table("Fig. 18 scale-out: chips on " +
                std::string(spec.abbrev) + " over " +
                options.run.link.name);
    table.header({"#chips", "cycles", "speedup", "halo V",
                  "exchange MB", "link busy", "bottleneck chip"});

    std::vector<RunResult> runs(counts.size());
    parallelFor(options.run.jobs, counts.size(), [&](std::size_t i) {
        RunOptions opts = options.run;
        opts.chips = counts[i];
        runs[i] = runNetwork(makeSgcn(), dataset, options.net, opts);
    });

    for (std::size_t i = 0; i < counts.size(); ++i) {
        const RunResult &run = runs[i];
        table.row({std::to_string(counts[i]),
                   std::to_string(run.total.cycles),
                   Table::num(speedupOver(runs[0], run), 2),
                   std::to_string(run.shard.haloVertices),
                   Table::num(static_cast<double>(
                                  run.shard.exchangeBytes) /
                                  1e6,
                              2),
                   Table::percent(run.shard.linkBusyFraction),
                   std::to_string(run.shard.bottleneckChipCycles)});
    }
    table.print();
}

void
engineSweep(const DatasetSpec &spec, const BenchOptions &options)
{
    const Dataset dataset = instantiateDataset(spec, options.scale);

    Table table("Fig. 18: speedup vs 1 engine, and bandwidth "
                "utilization (" + std::string(spec.abbrev) + ")");
    table.header({"#engines", "HBM2 speedup", "HBM2 BW util",
                  "HBM1 speedup", "HBM1 BW util"});

    // Build the full engines x memory-type cross product up front and
    // fan it out in one runAll; results come back in input order, so
    // entry 2*e is HBM2 and 2*e+1 is HBM1 for the e-th engine count.
    const std::vector<unsigned> engine_counts{1u, 2u, 4u, 8u, 16u,
                                              32u};
    std::vector<AccelConfig> configs;
    for (unsigned engines : engine_counts) {
        for (const DramConfig &dram :
             {DramConfig::hbm2(), DramConfig::hbm1()}) {
            AccelConfig config = makeSgcn();
            config.aggEngines = engines;
            config.combEngines = engines;
            config.dram = dram;
            // Cache ports scale with the engine count.
            config.cacheLinesPerCycle = engines;
            configs.push_back(std::move(config));
        }
    }
    const auto runs =
        runAll(configs, dataset, options.net, options.run);

    for (std::size_t e = 0; e < engine_counts.size(); ++e) {
        std::vector<std::string> row{std::to_string(engine_counts[e])};
        for (std::size_t m = 0; m < 2; ++m) {
            const RunResult &run = runs[2 * e + m];
            // The 1-engine run of the same memory type (entry m) is
            // the speedup baseline; speedupOver guards zero cycles.
            row.push_back(
                Table::num(speedupOver(runs[m], run), 2));
            row.push_back(Table::percent(run.total.bwUtil));
        }
        table.row(row);
    }
    table.print();
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    BenchOptions options = BenchOptions::fromCli(cli, {"dataset"});
    banner("Fig. 18 — engine scalability and memory type", options);

    // --datasets sweeps several; the legacy single --dataset flag
    // (default RD, the paper's figure subject) still works.
    const std::vector<DatasetSpec> specs =
        options.datasetsOr(cli, "RD");

    for (const DatasetSpec &spec : specs) {
        if (options.run.chips > 1)
            chipSweep(spec, options);
        else
            engineSweep(spec, options);
    }

    if (options.run.chips > 1) {
        std::printf("\nexpectation: speedup grows while compute "
                    "dominates, then saturates once the\n"
                    "             halo exchange binds the link "
                    "(watch the link-busy column).\n");
    } else {
        std::printf("\npaper: near-linear to ~8 engines; saturates "
                    "around 16 at the memory bandwidth ceiling;\n"
                    "       HBM1 saturates at roughly half the HBM2 "
                    "speedup.\n");
    }
    return 0;
}
