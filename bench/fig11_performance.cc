/**
 * @file
 * Fig. 11: speedup of the six accelerators over GCNAX on the nine
 * datasets, 28-layer residual GCN.
 *
 * Paper anchors: SGCN geomean 1.66x over GCNAX, 2.71x over HyGCN,
 * 1.73x over AWB-GCN, 1.85x over EnGN; best datasets PubMed (1.91x)
 * and NELL (1.99x); Cora/CiteSeer near the geomean.
 *
 * --pipeline-compare adds the schedule-aware variant: per
 * personality and dataset, the serial / per-layer-pipelined /
 * per-tile-pipelined cycle triple and the speedup of each pipelined
 * gating over the serial extrapolation (one run per cell — a
 * pipelined run carries all three totals in its PipelineStats).
 */

#include "bench_common.hh"

using namespace sgcn;
using namespace sgcn::bench;

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    BenchOptions options = BenchOptions::fromCli(cli, {"pipeline-compare"});
    const bool compare = cli.getBool("pipeline-compare", false);
    if (compare) {
        // The comparison needs the pipelined timeline; per-tile mode
        // carries the whole serial/per-layer/per-tile triple.
        options.run.pipeline = PipelineGating::PerTile;
    }
    banner("Fig. 11 — performance comparison", options);

    const auto personalities = allPersonalities();

    Table compare_table(
        "Fig. 11 (schedule-aware): serial vs pipelined gating");
    compare_table.header({"dataset", "accel", "serial", "per-layer",
                          "per-tile", "layer speedup",
                          "tile speedup"});

    Table table("Fig. 11: speedup over GCNAX (28-layer residual GCN)");
    std::vector<std::string> header{"dataset"};
    for (const auto &config : personalities)
        header.push_back(config.name);
    table.header(header);

    const std::size_t baseline_at =
        personalityIndex(personalities, "GCNAX");
    std::vector<std::vector<double>> speedups(personalities.size());
    for (const auto &spec : options.datasets) {
        const Dataset dataset = instantiateDataset(spec, options.scale);
        graphLine(dataset);
        // One fan-out per dataset; the GCNAX baseline is just the
        // corresponding entry of the input-ordered result vector.
        const auto runs = runAll(personalities, dataset, options.net,
                                 options.run);
        const RunResult &baseline = runs[baseline_at];

        std::vector<std::string> row{spec.abbrev};
        for (std::size_t p = 0; p < personalities.size(); ++p) {
            const double speedup = speedupOver(baseline, runs[p]);
            speedups[p].push_back(speedup);
            row.push_back(Table::num(speedup, 2));
        }
        table.row(row);

        if (compare) {
            for (const RunResult &run : runs) {
                const PipelineStats &pipe = run.pipeline;
                const auto serial =
                    static_cast<double>(pipe.serialCycles);
                compare_table.row(
                    {spec.abbrev, run.accelName,
                     std::to_string(pipe.serialCycles),
                     std::to_string(pipe.perLayerCycles),
                     std::to_string(pipe.perTileCycles),
                     Table::num(serial / static_cast<double>(
                                             pipe.perLayerCycles),
                                3),
                     Table::num(serial / static_cast<double>(
                                             pipe.perTileCycles),
                                3)});
            }
        }
    }

    std::vector<std::string> geo_row{"Geomean"};
    for (auto &series : speedups)
        geo_row.push_back(Table::num(geomean(series), 2));
    table.row(geo_row);
    table.print();

    if (compare) {
        std::printf("\n");
        compare_table.print();
    }

    std::printf("\npaper: SGCN geomean 1.66x over GCNAX, 2.71x over "
                "HyGCN, 1.73x over AWB-GCN, 1.85x over EnGN;\n"
                "       PubMed 1.91x, NELL 1.99x over GCNAX.\n");
    return 0;
}
