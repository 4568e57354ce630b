/**
 * @file
 * The benchmark's strict command line.
 *
 *   sgcn_perfbench --workload NAME [--seed N|default|heldout]
 *                  [--seconds N] [--trace 0|1] [--trace-dir DIR]
 *
 * Unlike the figure harnesses' shared parser, every unknown or
 * repeated flag, unknown workload and malformed number is an error:
 * a typo must never turn into a silently different benchmark run.
 */

#ifndef PERFBENCH_CLI_HH
#define PERFBENCH_CLI_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/error.hh"

namespace perfbench
{

enum class WorkloadKind : std::uint8_t
{
    PaperSweep,
    TimingSmall,
    ServeTrace,
    Scaleout,
};

/** Every workload, in the order BENCHMARK.json lists them. */
const std::vector<WorkloadKind> &allWorkloads();

const char *workloadName(WorkloadKind kind);

/** The seed tuning is done on. */
constexpr std::uint64_t kDefaultSeed = 1;

/** A seed no change was tuned on: check gain claims on it too. */
constexpr std::uint64_t kHeldOutSeed = 7919;

struct BenchArgs
{
    WorkloadKind workload = WorkloadKind::PaperSweep;
    std::uint64_t seed = kDefaultSeed;
    unsigned seconds = 10;
    bool trace = false;

    /** Where the traced run writes its Chrome trace; empty: nowhere. */
    std::string traceDir;
};

/** Parse the arguments after the program name. */
sgcn::Expected<BenchArgs> parseArgs(const std::vector<std::string> &args);

} // namespace perfbench

#endif // PERFBENCH_CLI_HH
