/**
 * @file
 * The four benchmark workloads and the run protocol around them.
 *
 * Every workload is a closed batch job on the host: one body runs to
 * completion before the next starts, each body starting cold
 * (clearSweepArtifacts()), all fan-outs at a fixed kJobs.
 *
 * An untraced run sets the inputs up once untimed, then repeatedly
 * (at least kSetupMinRepeats times, for at least kSetupSeconds), repeats
 * the body until --seconds have passed, then runs an untimed
 * fast-vs-timing probe for the fidelity metrics. A traced run
 * alternates untraced and span-wrapped bodies for the overhead, then
 * makes the benchmark's own calls into the graph, serve and
 * LayerEngine modules to time each layer.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>
#include <vector>

#include "checks.hh"
#include "cli.hh"
#include "report.hh"

namespace perfbench
{

/** Worker threads of every fan-out, the same on every commit. */
constexpr unsigned kJobs = 4;

/** Set-ups per untraced run, whose median is setup_s: at least
 *  kSetupMinRepeats, more while under kSetupSeconds have passed, so
 *  millisecond set-ups still give a steady median. */
constexpr unsigned kSetupMinRepeats = 5;
constexpr unsigned kSetupMaxRepeats = 50;
constexpr double kSetupSeconds = 2.0;

struct WorkloadOutcome
{
    Report report;
    CheckTally tally;

    /** Seconds of each timed body behind wall_s (of each traced
     *  body in a traced run). */
    std::vector<double> samples;

    /** Chrome trace-event JSON of a traced run, else empty. */
    std::string traceJson;
};

/** One line per workload: why the benchmark runs it. */
const char *workloadWhy(WorkloadKind kind);

/** Run @p args.workload under the protocol above. */
WorkloadOutcome runWorkload(const BenchArgs &args);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
