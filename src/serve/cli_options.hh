/**
 * @file
 * The one command-line parser for run and serve options, shared by
 * sgcn_sim, every bench harness, and the examples.
 *
 * Parsing is strict everywhere: a count outside its range, a
 * negative count, a non-numeric or non-positive scale, or an unknown
 * --mode / --arrival / --pipeline / --partition / --link /
 * --degraded-mode value is a fatal() (exit 1), and every binary
 * rejects flags it does not accept with Cli::requireKnownFlags
 * (exit 2) before parsing.
 */

#ifndef SGCN_SERVE_CLI_OPTIONS_HH
#define SGCN_SERVE_CLI_OPTIONS_HH

#include <string>
#include <vector>

#include "accel/runner.hh"
#include "serve/serve.hh"
#include "sim/cli.hh"

namespace sgcn
{

/** The flags runOptionsFromCli reads: --mode fast|timing,
 *  --sampled N, --pipeline[=off|layer|tile], --jobs N, --chips N,
 *  --partition contiguous|edge-balanced, --link pcie4|noc,
 *  --faults SPEC, --degraded-mode repartition|fail-fast. */
std::vector<std::string> runFlags();

/** The flags serveOptionsFromCli reads: --rate QPS, --requests N,
 *  --batch-max N, --linger CYCLES, --arrival poisson|fixed,
 *  --hops N, --fanout N, --serve-seed N. */
std::vector<std::string> serveFlags();

/** RunOptions from runFlags(); absent flags keep the RunOptions
 *  defaults, except --jobs, which defaults to every hardware
 *  thread. */
RunOptions runOptionsFromCli(const Cli &cli);

/** ServeOptions from serveFlags(); absent flags keep the
 *  ServeOptions defaults. */
ServeOptions serveOptionsFromCli(const Cli &cli);

} // namespace sgcn

#endif // SGCN_SERVE_CLI_OPTIONS_HH
