#include "serve/cli_options.hh"

#include "sim/logging.hh"
#include "sim/thread_pool.hh"

namespace sgcn
{

namespace
{

/** --pipeline[=off|layer|tile]: bare/"layer"/truthy values select
 *  per-layer gating, "tile" per-tile gating, falsy values turn
 *  pipelining off. */
void
applyPipelineFlag(RunOptions &opts, const std::string &value)
{
    if (value.empty() || value == "1" || value == "true" ||
        value == "yes" || value == "on" || value == "layer") {
        opts.pipeline = PipelineGating::PerLayer;
    } else if (value == "tile") {
        opts.pipeline = PipelineGating::PerTile;
    } else if (value == "0" || value == "false" || value == "no" ||
               value == "off") {
        opts.pipeline.reset();
    } else {
        fatal("bad --pipeline value '", value,
              "' (expected off|layer|tile)");
    }
}

} // namespace

std::vector<std::string>
runFlags()
{
    return {"mode",  "sampled",   "pipeline", "jobs",
            "chips", "partition", "link",     "faults",
            "degraded-mode"};
}

std::vector<std::string>
serveFlags()
{
    return {"rate",    "requests", "batch-max", "linger",
            "arrival", "hops",     "fanout",    "serve-seed"};
}

RunOptions
runOptionsFromCli(const Cli &cli)
{
    RunOptions opts;
    const std::string mode = cli.getString("mode", "fast");
    if (mode != "fast" && mode != "timing")
        fatal("bad --mode '", mode, "' (expected fast|timing)");
    opts.mode = mode == "timing" ? ExecutionMode::Timing
                                 : ExecutionMode::Fast;
    opts.sampledIntermediateLayers =
        cli.getCount("sampled", opts.sampledIntermediateLayers, 1);
    if (cli.has("pipeline"))
        applyPipelineFlag(opts, cli.getString("pipeline", ""));
    opts.jobs = cli.getCount("jobs", hardwareJobs(), 0);
    opts.chips = cli.getCount("chips", opts.chips, 1);
    opts.partitionPolicy = partitionPolicyByName(cli.getString(
        "partition", partitionPolicyName(opts.partitionPolicy)));
    if (cli.has("link"))
        opts.link = linkByName(cli.getString("link", ""));
    opts.faults =
        FaultPlan::parse(cli.getString("faults", "")).orFatal();
    opts.degradedMode =
        parseDegradedMode(cli.getString(
                              "degraded-mode",
                              degradedModeName(opts.degradedMode)))
            .orFatal();
    return opts;
}

ServeOptions
serveOptionsFromCli(const Cli &cli)
{
    ServeOptions serve;
    serve.offeredQps = cli.getDouble("rate", serve.offeredQps);
    if (!(serve.offeredQps > 0.0)) {
        fatal("bad --rate value '", cli.getString("rate", ""),
              "' (expected a number > 0)");
    }
    serve.requests = cli.getCount("requests", serve.requests, 1);
    serve.maxBatch = cli.getCount("batch-max", serve.maxBatch, 1);
    serve.maxLingerCycles =
        cli.getUnsigned("linger", serve.maxLingerCycles);
    serve.sample.hops = cli.getCount("hops", serve.sample.hops, 0);
    serve.sample.fanout =
        cli.getCount("fanout", serve.sample.fanout, 0);
    serve.sample.seed = cli.getUnsigned("serve-seed", serve.sample.seed);
    const std::string arrival = cli.getString("arrival", "poisson");
    if (arrival != "poisson" && arrival != "fixed")
        fatal("bad --arrival '", arrival, "' (expected poisson|fixed)");
    serve.poisson = arrival == "poisson";
    return serve;
}

} // namespace sgcn
