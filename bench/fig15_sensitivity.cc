/**
 * @file
 * Fig. 15: sensitivity of the geomean speedup (CR/CS/PM) to
 * (a) the number of GCN layers (7-112) and (b) the global cache
 * size (256 KB - 4 MB).
 *
 * Paper anchors: the speedup trend persists across depths; cache
 * size barely moves the speedup unless the data fits entirely.
 */

#include "bench_common.hh"

using namespace sgcn;
using namespace sgcn::bench;

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    BenchOptions options = BenchOptions::fromCli(cli);
    banner("Fig. 15 — layer-count and cache-size sensitivity",
           options);

    const char *abbrevs[] = {"CR", "CS", "PM"};
    const auto personalities = allPersonalities();

    // (a) Number of layers.
    Table layers_table("Fig. 15a: geomean speedup over GCNAX vs "
                       "#layers (CR, CS, PM)");
    std::vector<std::string> header{"#layers"};
    for (const auto &config : personalities)
        header.push_back(config.name);
    layers_table.header(header);

    const std::size_t baseline_at =
        personalityIndex(personalities, "GCNAX");
    for (unsigned depth : {7u, 14u, 28u, 56u, 112u}) {
        NetworkSpec net = options.net;
        net.layers = depth;
        std::vector<std::vector<double>> speedups(personalities.size());
        for (const char *abbrev : abbrevs) {
            const Dataset dataset = instantiateDataset(
                datasetByAbbrev(abbrev), options.scale);
            const auto runs =
                runAll(personalities, dataset, net, options.run);
            for (std::size_t p = 0; p < personalities.size(); ++p)
                speedups[p].push_back(
                    speedupOver(runs[baseline_at], runs[p]));
        }
        std::vector<std::string> row{std::to_string(depth)};
        for (const auto &series : speedups)
            row.push_back(Table::num(geomean(series), 2));
        layers_table.row(row);
    }
    layers_table.print();
    std::printf("\n");

    // (b) Cache size.
    Table cache_table("Fig. 15b: geomean speedup over 512KB-GCNAX vs "
                      "cache size (CR, CS, PM)");
    cache_table.header(header);
    for (std::uint64_t kb : {256u, 512u, 1024u, 2048u, 4096u}) {
        std::vector<AccelConfig> sized = personalities;
        for (auto &config : sized)
            config.cache.sizeBytes = kb * 1024;
        std::vector<std::vector<double>> speedups(personalities.size());
        for (const char *abbrev : abbrevs) {
            const Dataset dataset = instantiateDataset(
                datasetByAbbrev(abbrev), options.scale);
            const auto runs =
                runAll(sized, dataset, options.net, options.run);
            for (std::size_t p = 0; p < sized.size(); ++p)
                speedups[p].push_back(
                    speedupOver(runs[baseline_at], runs[p]));
        }
        std::vector<std::string> row{std::to_string(kb) + "KB"};
        for (const auto &series : speedups)
            row.push_back(Table::num(geomean(series), 2));
        cache_table.row(row);
    }
    cache_table.print();

    std::printf("\npaper: sparsity stays roughly constant with depth "
                "so the speedup persists;\n"
                "       speedups are largely insensitive to cache "
                "size.\n");
    return 0;
}
