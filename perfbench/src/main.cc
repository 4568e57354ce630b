/**
 * @file
 * sgcn_perfbench: the repository benchmark's entry point.
 *
 * Prints a human-readable table, then as its last line the JSON
 * result object (see report.hh). Exits 2 on a bad command line and 1
 * if the benchmark itself cannot finish; failed output checks are
 * reported in the result, not as an exit code.
 */

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.hh"
#include "report.hh"
#include "workloads.hh"

using namespace perfbench;

int
main(int argc, char **argv)
{
    const sgcn::Expected<BenchArgs> parsed =
        parseArgs(std::vector<std::string>(argv + 1, argv + argc));
    if (!parsed.ok()) {
        std::fprintf(stderr,
                     "sgcn_perfbench: %s\nusage: sgcn_perfbench "
                     "--workload paper-sweep|timing-small|serve-trace|"
                     "scaleout [--seed N|default|heldout] [--seconds N] "
                     "[--trace 0|1] [--trace-dir DIR]\n",
                     parsed.error().message.c_str());
        return 2;
    }
    const BenchArgs &args = parsed.value();
    try {
        WorkloadOutcome outcome = runWorkload(args);
        const std::vector<MetricDef> &defs =
            args.trace ? perLayerMetrics() : endToEndMetrics();
        std::printf("workload %s (%s)\nseed %llu, jobs %u, %zu %s:",
                    workloadName(args.workload),
                    workloadWhy(args.workload),
                    static_cast<unsigned long long>(args.seed), kJobs,
                    outcome.samples.size(),
                    args.trace ? "traced bodies" : "timed bodies");
        for (const double seconds : outcome.samples)
            std::printf(" %.3f s", seconds);
        std::printf("\n%llu cells attempted, %llu failed, error_rate %s\n",
                    static_cast<unsigned long long>(
                        outcome.tally.attempted()),
                    static_cast<unsigned long long>(outcome.tally.failed()),
                    formatNumber(outcome.tally.errorRate()).c_str());
        for (const std::string &failure : outcome.tally.failures())
            std::printf("  FAILED %s\n", failure.c_str());
        if (!args.trace) {
            std::printf("anchor_err is the distance to the paper's "
                        "reported Fig. 11 ratios on synthetic stand-in "
                        "graphs; the model is not validated against "
                        "hardware.\n");
        }
        outcome.report.printTable(stdout, defs);

        if (args.trace && !args.traceDir.empty()) {
            std::filesystem::create_directories(args.traceDir);
            const std::string path =
                args.traceDir + "/" + workloadName(args.workload) +
                "-seed" + std::to_string(args.seed) + ".json";
            std::ofstream file(path);
            file << outcome.traceJson;
            if (!file.flush())
                throw std::runtime_error("cannot write " + path);
            std::printf("trace written to %s\n", path.c_str());
        }
        const std::string line = outcome.report.jsonLine(
            defs, outcome.tally.failed() == 0, outcome.tally.attempted(),
            outcome.tally.failed());
        std::printf("%s\n", line.c_str());
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "sgcn_perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
