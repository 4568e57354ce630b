/**
 * @file
 * The serving-trace workload: open-loop request arrivals, an
 * admission/batching policy, and a request scheduler that drives
 * mini-batch ego-network subgraphs through a personality on the
 * simulated timeline.
 *
 * The paper evaluates whole-graph epochs; a production deployment
 * serves per-user requests. Here a trace of `requests` arrivals
 * (Poisson or fixed-rate at `offeredQps`) is admitted into batches —
 * a batch closes when it reaches `maxBatch` requests or when its
 * first request has lingered `maxLingerCycles` — and each batch is
 * served by simulating the configured network over the batch's
 * sampled subgraph (src/graph/sampler). Batches execute in admission
 * order on one accelerator timeline: batch b starts at
 * max(close_b, end_{b-1}).
 *
 * Determinism: arrivals come from one seeded stream, batch
 * composition is a pure function of the arrivals (it never depends
 * on service times), and each request samples under its own derived
 * RNG stream — so the per-batch service simulations fan out over the
 * --jobs pool with bit-identical results at any job count, and a
 * --faults plan (re-seeded per batch via FaultInjector::deriveSeed)
 * replays the exact tail-latency timeline.
 */

#ifndef SGCN_SERVE_SERVE_HH
#define SGCN_SERVE_SERVE_HH

#include <cstdint>
#include <vector>

#include "accel/runner.hh"
#include "graph/sampler.hh"

namespace sgcn
{

/** Accelerator clock assumed when mapping cycles to wall time (the
 *  paper's 1 GHz design point). */
constexpr double kServeClockHz = 1.0e9;

/** Serving-trace shape: arrivals, admission policy, sampler. */
struct ServeOptions
{
    /** Open-loop offered rate, requests per second. */
    double offeredQps = 2000.0;

    /** Poisson inter-arrivals (false: fixed 1/rate spacing). */
    bool poisson = true;

    /** Trace length in requests. */
    unsigned requests = 128;

    /** Admission: close a batch at this many requests... */
    unsigned maxBatch = 8;

    /** ...or when its first request has waited this many cycles. */
    Cycle maxLingerCycles = 500000;

    /** Ego-network sampler shape (hops, fanout, trace seed). */
    EgoSampleParams sample;
};

/** One admitted batch: requests [first, first + count) of the
 *  trace, closed (ready to execute) at closeCycle. */
struct RequestBatch
{
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    Cycle closeCycle = 0;
};

/**
 * The trace's arrival cycles (ascending, request 0 arrives at its
 * first sampled interval). One seeded stream: independent of jobs,
 * batching, and service.
 */
std::vector<Cycle> generateArrivals(const ServeOptions &serve);

/**
 * Admit @p arrivals into batches: a batch closes at the arrival of
 * its maxBatch-th member or when its first member has lingered
 * maxLinger cycles, whichever is earlier. Pure function of the
 * arrivals — no request waits past the linger, no batch exceeds
 * maxBatch.
 */
std::vector<RequestBatch> admitBatches(
    const std::vector<Cycle> &arrivals, unsigned max_batch,
    Cycle max_linger);

/** Nearest-rank percentile (pct in (0, 100]) of @p samples. */
Cycle latencyPercentile(std::vector<Cycle> samples, double pct);

/**
 * Run the serving trace: sample per-batch subgraphs, simulate each
 * batch's service with @p opts (mode/jobs/chips/pipeline/faults all
 * compose; a fault plan is re-seeded per batch), chain batches on
 * the arrival timeline, and report latency percentiles, sustained
 * QPS, and occupancy via RunResult::serve. RunResult::total,
 * RunResult::shard and RunResult::faults are the per-batch service
 * runs summed (LayerResult::merge, ShardStats::add, FaultStats::add)
 * and priced like one run (priceRun): bandwidth use, per-chip
 * cycles, energy, TDP and area all follow the run's own rules.
 */
Expected<RunResult> tryServeTrace(const AccelConfig &config,
                                  const Dataset &dataset,
                                  const NetworkSpec &net,
                                  const RunOptions &opts,
                                  const ServeOptions &serve);

/** tryServeTrace via fatal() on error. */
RunResult serveTrace(const AccelConfig &config, const Dataset &dataset,
                     const NetworkSpec &net, const RunOptions &opts,
                     const ServeOptions &serve);

/** The trace per personality, input-ordered. */
Expected<std::vector<RunResult>> tryServeAll(
    const std::vector<AccelConfig> &configs, const Dataset &dataset,
    const NetworkSpec &net, const RunOptions &opts,
    const ServeOptions &serve);

} // namespace sgcn

#endif // SGCN_SERVE_SERVE_HH
