/**
 * @file
 * Whole-network simulation driver.
 *
 * Simulates the input layer once plus a sample of intermediate
 * layers (midpoints of equal-depth strata of the architectural
 * network), then extrapolates intermediate totals to the full depth
 * (DESIGN.md SS6). The input layer is never extrapolated, so
 * NELL-style first-layer effects amortize over the network exactly
 * as in the paper (SVI-B).
 *
 * With RunOptions::pipeline set the cycle extrapolation is
 * overlap-aware instead: each sampled layer's phase schedule repeats
 * over its stratum on the shared network timeline built by
 * src/accel/pipeline/layer_pipeline.hh, gated per layer or per tile.
 */

#ifndef SGCN_ACCEL_RUNNER_HH
#define SGCN_ACCEL_RUNNER_HH

#include <optional>
#include <vector>

#include "accel/config.hh"
#include "accel/interconnect/link.hh"
#include "accel/result.hh"
#include "gcn/spec.hh"
#include "graph/datasets.hh"
#include "graph/partition.hh"
#include "sim/error.hh"
#include "sim/fault/fault.hh"

namespace sgcn
{

/** Simulation options. */
struct RunOptions
{
    ExecutionMode mode = ExecutionMode::Fast;

    /** Intermediate layers actually simulated (sampled). */
    unsigned sampledIntermediateLayers = 4;

    /** Simulate the dataset-input layer. */
    bool includeInputLayer = true;

    /**
     * Chain layers on one shared timeline (src/accel/pipeline/),
     * each waiting on the given gate: the producer's whole output
     * drain (PerLayer, --pipeline), or, for streaming consumers
     * (LayerSchedule::sequentialInput), the producer tiles covering
     * its next input chunk (PerTile, --pipeline=tile; never more
     * cycles than PerLayer). The depth extrapolation uses the
     * steady-state pipelined advance. Unset (the default) keeps the
     * serial totals bit-identically; set, only cycles (and stats
     * derived from them) change. RunResult::pipeline reports what
     * the overlap won.
     */
    std::optional<PipelineGating> pipeline = {};

    /**
     * Parallelism of every fan-out a run makes: personalities in
     * runAll, the (layer, chip) engines of one network, served
     * batches. 1 runs serially on the caller thread (the default, so
     * library behaviour is unchanged), 0 uses every hardware thread,
     * N runs at most N tasks of each fan-out at once. Nested
     * fan-outs share one process-wide pool (src/sim/thread_pool.hh).
     * Results are deterministic and input-ordered regardless of the
     * value.
     */
    unsigned jobs = 1;

    /**
     * Drop the process-wide sweep memos (StreamArtifactCache and
     * PreprocessCache) when runAll returns. Off by default: a sweep
     * driver calling runAll once per dataset wants the artifacts to
     * persist across calls — that sharing is the point of the caches.
     * Turn it on for the last runAll of a sweep (or in long-lived
     * hosts embedding the library) to bound the resident footprint.
     */
    bool releaseArtifacts = false;

    /**
     * Simulated accelerator chips (clamped to the vertex count).
     * Every run partitions the graph with partitionPolicy, runs each
     * layer on every chip (all layers x chips fan out over the jobs
     * pool), and composes the per-chip timelines with a halo-feature
     * exchange over `link`. 1 (the default) is one shard with no
     * halo: the whole graph, a free exchange, and no
     * RunResult::shard block; N > 1 reports the shard breakdown.
     */
    unsigned chips = 1;

    /** How the multi-chip partitioner cuts the vertex space. */
    PartitionPolicy partitionPolicy = PartitionPolicy::EdgeBalanced;

    /** The interconnect the chips exchange halo features over. */
    LinkConfig link = LinkConfig::pcie4();

    /**
     * Deterministic fault schedule (--faults). Empty (the default)
     * injects nothing and leaves every path bit-identical to the
     * fault-free build. Chip-targeted faults require chips > 1;
     * dram-retry applies to any run shape (timing mode only — fast
     * mode never issues timing DRAM requests). RunResult::faults
     * reports what was injected and what it cost.
     */
    FaultPlan faults = {};

    /** Reaction to an injected chip-fail (--degraded-mode). */
    DegradedMode degradedMode = DegradedMode::Repartition;
};

/**
 * Drop every process-wide sweep memo: the stream-artifact cache
 * (masks, prepared layouts, tile views, degree orders, SAGE
 * fractions) and the preprocess cache (reordered topologies).
 * Outstanding shared handles stay valid; later runs recompute.
 * runAll calls this when RunOptions::releaseArtifacts is set.
 */
void clearSweepArtifacts();

/**
 * Simulate @p net on @p dataset with accelerator @p config,
 * reporting recoverable failures — an invalid fault plan for the run
 * shape, or a chip failure under --degraded-mode fail-fast — as
 * typed errors instead of exiting.
 */
Expected<RunResult> tryRunNetwork(const AccelConfig &config,
                                  const Dataset &dataset,
                                  const NetworkSpec &net,
                                  const RunOptions &opts = {});

/**
 * Set @p run's derived figures from its own totals: total.bwUtil,
 * shard.bottleneckChipCycles and shard.linkBusyFraction, energy,
 * TDP and area. Every RunResult — one run, or a served trace's
 * summed batch runs — is priced here.
 */
void priceRun(const AccelConfig &config, RunResult &run);

/** tryRunNetwork, fatal on error (the CLI-boundary convenience). */
RunResult runNetwork(const AccelConfig &config, const Dataset &dataset,
                     const NetworkSpec &net, const RunOptions &opts = {});

/**
 * Run several personalities on one dataset. With opts.jobs != 1 the
 * simulations (and, nested, their layers) fan out across the shared
 * pool; results keep the input
 * order and are bit-identical to the serial path (each simulation
 * owns all of its state — see src/sim/thread_pool.hh). On failure
 * the error of the lowest-index failing run is returned.
 */
Expected<std::vector<RunResult>>
tryRunAll(const std::vector<AccelConfig> &configs,
          const Dataset &dataset, const NetworkSpec &net,
          const RunOptions &opts = {});

/** tryRunAll, fatal on error (the CLI-boundary convenience). */
std::vector<RunResult> runAll(const std::vector<AccelConfig> &configs,
                              const Dataset &dataset,
                              const NetworkSpec &net,
                              const RunOptions &opts = {});

/** Speedup of @p contender over @p baseline (cycles ratio). */
double speedupOver(const RunResult &baseline,
                   const RunResult &contender);

} // namespace sgcn

#endif // SGCN_ACCEL_RUNNER_HH
