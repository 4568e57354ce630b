/**
 * @file
 * Fig. 21 (extension): serving-trace latency under load — request
 * latency percentiles and sustained QPS per personality, an
 * offered-rate sweep showing where the accelerator saturates, and a
 * fault replay quantifying what a degraded link does to the tail.
 *
 * Not a paper figure: the HPCA'23 paper evaluates whole-graph
 * epochs. This harness characterizes the serving subsystem
 * (src/serve/, src/graph/sampler) on the ROADMAP north-star
 * workload: an open-loop trace of per-user ego-network requests,
 * admitted into mini-batches and driven through each personality on
 * the simulated timeline. Everything is seeded and arrival-driven,
 * so tables are bit-reproducible at any --jobs value, and a --faults
 * plan replays the exact same tail-latency timeline.
 *
 * Default mode: per dataset, a latency table across personalities at
 * the configured rate, an offered-rate sweep on SGCN, and a
 * link-degrade tail comparison (clean vs degraded p99, sharded).
 * With an explicit --faults SPEC the harness replays exactly that
 * plan instead of the default degrade comparison.
 *
 * Shares the bench_common flags plus the serving flags (--rate,
 * --requests, --batch-max, --linger, --arrival, --hops, --fanout,
 * --serve-seed).
 */

#include "accel/report.hh"
#include "bench_common.hh"

using namespace sgcn;
using namespace sgcn::bench;

namespace
{

/** Cycles per microsecond on the serving clock. */
constexpr double kCyclesPerUs = kServeClockHz / 1.0e6;

std::string
us(Cycle cycles)
{
    return Table::num(static_cast<double>(cycles) / kCyclesPerUs, 1);
}

/** Latency percentiles per personality at the configured rate. */
void
latencyTable(const Dataset &dataset, const BenchOptions &options,
             const std::vector<AccelConfig> &configs,
             const ServeOptions &serve,
             const std::vector<RunResult> &runs)
{
    Table table("Fig. 21 serving latency on " +
                std::string(dataset.spec.abbrev) + " (" +
                std::to_string(serve.requests) + " requests, " +
                (serve.poisson ? "poisson" : "fixed") + " @ " +
                Table::num(serve.offeredQps, 0) + " qps)");
    table.header({"personality", "p50 us", "p95 us", "p99 us",
                  "sustained qps", "batches", "mean batch", "peak"});
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const ServeStats &s = runs[i].serve;
        table.row({configs[i].name, us(s.p50Cycles), us(s.p95Cycles),
                   us(s.p99Cycles), Table::num(s.sustainedQps, 0),
                   std::to_string(s.batches),
                   Table::num(s.meanOccupancy, 2),
                   std::to_string(s.peakOccupancy)});
    }
    table.print();
    (void)options;
}

/** Offered-rate sweep on SGCN: where sustained QPS saturates. */
void
rateSweep(const Dataset &dataset, const BenchOptions &options,
          const AccelConfig &sgcn, const ServeOptions &serve)
{
    Table table("Fig. 21 offered-rate sweep on " +
                std::string(dataset.spec.abbrev) + " (SGCN)");
    table.header({"offered qps", "sustained qps", "p50 us", "p95 us",
                  "p99 us", "mean batch"});
    for (double factor : {0.5, 1.0, 2.0, 4.0}) {
        ServeOptions swept = serve;
        swept.offeredQps = serve.offeredQps * factor;
        NetworkSpec net = options.net;
        net.sageSeed = swept.sample.seed;
        const RunResult run =
            serveTrace(sgcn, dataset, net, options.run, swept);
        const ServeStats &s = run.serve;
        table.row({Table::num(swept.offeredQps, 0),
                   Table::num(s.sustainedQps, 0), us(s.p50Cycles),
                   us(s.p95Cycles), us(s.p99Cycles),
                   Table::num(s.meanOccupancy, 2)});
    }
    table.print();
}

/** Tail shift under a fault plan: clean vs faulted percentiles. */
void
faultTail(const Dataset &dataset, const BenchOptions &options,
          const std::vector<AccelConfig> &configs,
          const ServeOptions &serve, const std::string &spec)
{
    // Chip-targeted faults need a sharded run; everything else about
    // the trace (arrivals, sampling, batching) stays identical, so
    // the table isolates what the fault plan does to the tail.
    BenchOptions sharded = options;
    if (sharded.run.chips < 2)
        sharded.run.chips = 2;
    NetworkSpec net = sharded.net;
    net.sageSeed = serve.sample.seed;

    BenchOptions clean = sharded;
    clean.run.faults = {};
    const std::vector<RunResult> base =
        tryServeAll(configs, dataset, net, clean.run, serve)
            .orFatal();

    BenchOptions faulted = sharded;
    faulted.run.faults = FaultPlan::parse(spec).orFatal();
    const std::vector<RunResult> runs =
        tryServeAll(configs, dataset, net, faulted.run, serve)
            .orFatal();

    Table table("Fig. 21 tail under " +
                faulted.run.faults.canonical() + " on " +
                std::string(dataset.spec.abbrev) + " (" +
                std::to_string(sharded.run.chips) + " chips)");
    table.header({"personality", "clean p99 us", "faulted p99 us",
                  "p99 shift", "retries", "backoff"});
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const Cycle before = base[i].serve.p99Cycles;
        const Cycle after = runs[i].serve.p99Cycles;
        table.row({configs[i].name, us(before), us(after),
                   before > 0 ? Table::ratio(
                                    static_cast<double>(after) /
                                    static_cast<double>(before))
                              : "-",
                   std::to_string(runs[i].faults.linkRetries),
                   std::to_string(runs[i].faults.backoffCycles)});
    }
    table.print();
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli(argc, argv);
    std::vector<std::string> flags = serveFlags();
    flags.push_back("dataset");
    const BenchOptions options = BenchOptions::fromCli(cli, flags);
    const ServeOptions serve = serveOptionsFromCli(cli);
    banner("Fig. 21 — serving-trace latency under load", options);
    std::printf("trace: %u requests, %s arrivals @ %.0f qps, "
                "batch<=%u, linger %llu cycles, %u-hop fanout %u, "
                "seed %llu\n\n",
                serve.requests, serve.poisson ? "poisson" : "fixed",
                serve.offeredQps, serve.maxBatch,
                static_cast<unsigned long long>(
                    serve.maxLingerCycles),
                serve.sample.hops, serve.sample.fanout,
                static_cast<unsigned long long>(serve.sample.seed));

    const std::vector<DatasetSpec> specs =
        options.datasetsOr(cli, "CR");

    const std::vector<AccelConfig> configs = allPersonalities();
    const std::size_t sgcn = personalityIndex(configs, "SGCN");
    const bool replay = options.run.faults.active();

    for (const DatasetSpec &spec : specs) {
        const Dataset dataset =
            instantiateDataset(spec, options.scale);
        graphLine(dataset);
        NetworkSpec net = options.net;
        net.sageSeed = serve.sample.seed;

        // Percentile table at the configured rate (fault-free even
        // when a replay plan is given: it is the comparison base).
        BenchOptions clean = options;
        clean.run.faults = {};
        const std::vector<RunResult> runs =
            tryServeAll(configs, dataset, net, clean.run, serve)
                .orFatal();
        latencyTable(dataset, options, configs, serve, runs);
        std::printf("  %s\n\n",
                    serveSummaryLine(runs[sgcn]).c_str());

        rateSweep(dataset, options, configs[sgcn], serve);
        faultTail(dataset, options, configs, serve,
                  replay ? options.run.faults.canonical()
                         : "link-degrade:chip1:0.5");
    }

    std::printf("\nexpectation: p99 grows with the offered rate as "
                "batches queue behind the\n"
                "             accelerator; a degraded link shifts "
                "the whole tail right while the\n"
                "             arrival stream (and hence batch "
                "composition) stays identical.\n");
    return 0;
}
