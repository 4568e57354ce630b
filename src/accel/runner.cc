#include "accel/runner.hh"

#include <algorithm>
#include <memory>
#include <span>

#include "accel/interconnect/exchange.hh"
#include "accel/layer_engine.hh"
#include "accel/pipeline/layer_pipeline.hh"
#include "accel/pipeline/shard_timeline.hh"
#include "accel/stream_artifacts.hh"
#include "gcn/sparsity_model.hh"
#include "graph/preprocess_cache.hh"
#include "sim/logging.hh"
#include "sim/thread_pool.hh"

namespace sgcn
{

namespace
{

/**
 * Chain the simulated layer schedules on one shared timeline,
 * extrapolating each sampled intermediate layer over its sampling
 * stratum: with k samples of depth A, each midpoint layer repeats
 * A/k times at its steady-state advance. The fractional A/k is
 * exactly the factor the serial extrapolation scales by, so the
 * pipelined total is bounded by the serial total it replaces.
 */
NetworkSchedule
chainSampledSchedules(const RunResult &run, unsigned arch_intermediate,
                      bool include_input_layer,
                      PipelineGating gating)
{
    LayerPipeline pipeline(gating);
    if (include_input_layer)
        pipeline.append(run.inputLayer.schedule);
    const auto strata =
        static_cast<unsigned>(run.sampledLayers.size());
    SGCN_ASSERT(strata >= 1 && strata <= arch_intermediate,
                "inter-layer pipeline needs at least one sampled "
                "intermediate layer per stratum (sampled ",
                strata, " of ", arch_intermediate, ")");
    const double repeats =
        static_cast<double>(arch_intermediate) / strata;
    for (unsigned i = 0; i < strata; ++i)
        pipeline.append(run.sampledLayers[i].schedule, repeats);
    return pipeline.schedule();
}

/**
 * One simulated layer of a run, planned before any engine runs: the
 * partition it runs on, which original chip each partition chip is,
 * and the failure-recovery cost it pays. Chip failures are a pure
 * function of the fault plan, so the whole plan is known up front.
 */
struct LayerPlan
{
    /** 0 is the input layer. */
    unsigned archLayer = 0;

    std::shared_ptr<const GraphPartition> partition;

    /** Partition chip index -> the original chip id fault clauses
     *  (and ShardStats::chipCycles) name; identity until a
     *  chip-fail shrinks the partition onto the survivors. */
    std::vector<unsigned> originalChip;

    /** One-time recovery cost charged to this layer's exchange
     *  prefix (the schedule slot the network pipeline already knows
     *  how to hide). */
    Cycle recoveryCycles = 0;
};

} // namespace

Expected<RunResult>
tryRunNetwork(const AccelConfig &config, const Dataset &dataset,
              const NetworkSpec &net, const RunOptions &opts)
{
    SGCN_ASSERT(net.layers >= 2, "need at least two layers");
    SGCN_ASSERT(opts.sampledIntermediateLayers >= 1,
                "RunOptions::sampledIntermediateLayers must be >= 1: "
                "a zero-sample run would silently report "
                "input-layer-only totals");

    RunResult run;
    run.accelName = config.name;
    run.datasetAbbrev = dataset.spec.abbrev;

    // I-GCN preprocesses the topology with islandization. The
    // permuted graph is memoized process-wide: in a sweep every
    // island-reordering personality (and every repeat run) shares
    // one islandization per dataset instead of recomputing it.
    std::shared_ptr<const CsrGraph> reordered;
    const CsrGraph *graph = &dataset.graph;
    if (config.islandReorder) {
        reordered = PreprocessCache::instance().islandized(
            dataset.graph);
        graph = reordered.get();
    }

    // Every run is a partition; one chip is one shard with no halo,
    // so its exchange is free and its engines see the whole graph.
    const unsigned chips = static_cast<unsigned>(
        std::min<std::uint64_t>(opts.chips, graph->numVertices()));
    if (Status valid = opts.faults.validate(chips); !valid.ok())
        return valid.error();

    const bool faulty = opts.faults.active();
    const FaultInjector injector_storage(opts.faults);
    const FaultInjector *injector = faulty ? &injector_storage : nullptr;
    const double retry_prob =
        faulty ? opts.faults.dramRetryProb() : 0.0;

    FaultStats &faults = run.faults;
    if (faulty) {
        faults.enabled = true;
        faults.spec = opts.faults.canonical();
        faults.seed = opts.faults.seed;
        faults.degradedMode = degradedModeName(opts.degradedMode);
    }

    // Plan the simulated layers in order: the input layer, then the
    // sampled intermediate layers (X^l for l in 1..layers-1 feeds
    // layer l+1). A chip that dies at a layer is detected at that
    // layer boundary — the previous layer completed everywhere — so
    // the layer replays on the survivors with no partial work lost;
    // the recovery cost (detection timeout, route latency,
    // re-materializing the dead shard's X^l on the survivors) is
    // charged to the replayed layer's exchange prefix.
    const unsigned arch_intermediate = net.layers - 1;
    const auto indices = sampleLayerIndices(
        arch_intermediate, opts.sampledIntermediateLayers);
    std::vector<unsigned> arch_layers;
    if (opts.includeInputLayer)
        arch_layers.push_back(0);
    for (unsigned idx : indices)
        arch_layers.push_back(idx + 1);

    auto partition = StreamArtifactCache::instance().partition(
        *graph, chips, opts.partitionPolicy);
    const std::uint64_t halo_vertices = partition->totalHaloVertices();
    std::vector<unsigned> original_chip(chips);
    for (unsigned c = 0; c < chips; ++c)
        original_chip[c] = c;
    std::vector<LayerPlan> plans;
    for (unsigned arch_layer : arch_layers) {
        std::vector<unsigned> dead;
        for (unsigned c = 0; faulty && c < original_chip.size(); ++c) {
            if (opts.faults.failsAt(original_chip[c], arch_layer))
                dead.push_back(c);
        }
        Cycle recovery = 0;
        if (!dead.empty()) {
            if (opts.degradedMode == DegradedMode::FailFast) {
                return makeError(
                    ErrorCode::ChipFailure, "chip ",
                    original_chip[dead.front()], " failed at layer ",
                    arch_layer, " on ", dataset.spec.abbrev, " ('",
                    config.name,
                    "'); --degraded-mode fail-fast aborts the run "
                    "(use repartition to continue on the survivors)");
            }
            if (dead.size() >= original_chip.size()) {
                return makeError(ErrorCode::ChipFailure,
                                 "every chip failed by layer ",
                                 arch_layer,
                                 "; no survivors to repartition onto");
            }
            const unsigned survivors = static_cast<unsigned>(
                original_chip.size() - dead.size());
            const unsigned width =
                arch_layer == 0 ? dataset.inputWidth : net.hidden;
            for (unsigned c : dead) {
                // Detection (the exchange timeout expiring on the
                // dead port), the redistribution route, and the
                // re-materialization of the dead shard's dense X^l
                // rows on the survivors.
                const std::uint64_t bytes =
                    static_cast<std::uint64_t>(
                        partition->shard(c).ownedRows()) *
                    width * 4;
                recovery += opts.link.exchangeTimeoutCycles +
                            opts.link.hops(survivors) *
                                opts.link.hopLatency +
                            opts.link.serializationCycles(bytes);
            }
            for (auto it = dead.rbegin(); it != dead.rend(); ++it)
                original_chip.erase(original_chip.begin() + *it);
            partition = StreamArtifactCache::instance().partition(
                *graph, survivors, opts.partitionPolicy);
            faults.failedChips += static_cast<unsigned>(dead.size());
            faults.repartitions += 1;
            faults.recoveryCycles += recovery;
            faults.recoveredLayers.push_back(arch_layer);
        }
        plans.push_back({arch_layer, partition, original_chip, recovery});
    }

    // Every (layer, chip) engine is an independent simulation (each
    // owns its cache and DRAM; the chips share global masks through
    // the artifact cache), so they fan out as one batch.
    std::vector<std::size_t> first_task{0};
    for (const LayerPlan &plan : plans)
        first_task.push_back(first_task.back() +
                             plan.partition->numChips());
    std::vector<LayerResult> chip_results(first_task.back());
    std::vector<std::shared_ptr<const FeatureLayout>> in_layouts(
        first_task.back());
    parallelFor(opts.jobs, chip_results.size(), [&](std::size_t t) {
        const std::size_t layer = static_cast<std::size_t>(
            std::upper_bound(first_task.begin(), first_task.end(), t) -
            first_task.begin() - 1);
        const LayerPlan &plan = plans[layer];
        const auto chip = static_cast<unsigned>(t - first_task[layer]);
        const LayerContext ctx =
            plan.archLayer == 0
                ? makeChipInputLayer(dataset, *plan.partition, chip,
                                     config, net)
                : makeChipIntermediateLayer(dataset, *plan.partition,
                                            chip, config, net,
                                            plan.archLayer);
        in_layouts[t] = ctx.inLayout;
        // A dram-retry fault gives every chip its own derived retry
        // seed so chip timelines decorrelate; without one the
        // caller's config runs untouched.
        const AccelConfig *cfg = &config;
        AccelConfig chip_cfg;
        if (retry_prob > 0.0) {
            chip_cfg = config;
            chip_cfg.dram.transientRetryProb = retry_prob;
            chip_cfg.dram.retrySeed = FaultInjector::deriveSeed(
                opts.faults.seed, plan.originalChip[chip]);
            cfg = &chip_cfg;
        }
        LayerEngine engine(*cfg, ctx);
        chip_results[t] = engine.run(opts.mode);
    });

    // Price each layer's halo exchange off its chip input layouts,
    // compose the chips onto the shared timeline, and account it, in
    // layer order. Exchange and per-chip totals follow run.total's
    // extrapolation convention: input layer counted once, sampled
    // intermediate layers scaled to the architectural depth. Fault
    // event counts follow the same convention; recovery costs are
    // one-time and accounted unscaled where they happen.
    ShardStats shard;
    shard.chipCycles.assign(chips, 0);
    const double repeats = static_cast<double>(arch_intermediate) /
                           static_cast<double>(indices.size());
    LayerResult sampled_sum;
    for (std::size_t i = 0; i < plans.size(); ++i) {
        const LayerPlan &plan = plans[i];
        const std::span<LayerResult> layer_chips(
            chip_results.data() + first_task[i],
            first_task[i + 1] - first_task[i]);
        std::vector<const FeatureLayout *> layouts;
        for (std::size_t t = first_task[i]; t < first_task[i + 1]; ++t)
            layouts.push_back(in_layouts[t].get());
        ExchangeFaultContext fault_ctx;
        fault_ctx.injector = injector;
        fault_ctx.archLayer = plan.archLayer;
        fault_ctx.originalChip = plan.originalChip.data();
        const ExchangeCost exchange =
            priceHaloExchange(*plan.partition, layouts, opts.link,
                              injector ? &fault_ctx : nullptr);

        // Chip stalls extend the stalled chip's drain (and so its
        // critical path), keeping criticalEnd() == cycles and the
        // last tile pinned to the drain end.
        Cycle stall_cycles = 0;
        for (unsigned c = 0; injector && c < layer_chips.size(); ++c) {
            const Cycle stall = injector->plan().chipStall(
                plan.originalChip[c], plan.archLayer);
            if (stall == 0)
                continue;
            LayerResult &chip = layer_chips[c];
            chip.cycles += stall;
            chip.schedule.outputDrain.end = chip.cycles;
            chip.schedule.tileSpans.back().outputReady =
                chip.schedule.outputDrain.end;
            stall_cycles += stall;
        }

        // Recovery rides the exchange slot of the composed schedule:
        // the compose shifts the bottleneck timeline by the exchange
        // cycles, so adding recovery there keeps every schedule
        // invariant.
        ExchangeCost priced = exchange;
        priced.cycles += plan.recoveryCycles;
        LayerResult merged = composeChipLayers(layer_chips, priced);
        merged.bwUtil = config.dram.bandwidthUtil(
            merged.traffic.totalLines(), merged.cycles,
            static_cast<unsigned>(layer_chips.size()));

        const double scale = plan.archLayer == 0 ? 1.0 : repeats;
        const auto scaled = [scale](auto value) {
            return static_cast<decltype(value)>(
                static_cast<double>(value) * scale);
        };
        shard.exchangeBytes += scaled(exchange.totalBytes);
        shard.exchangeCycles += scaled(exchange.cycles);
        shard.linkBusyCycles += scaled(exchange.busiestPortCycles);
        for (unsigned c = 0; c < layer_chips.size(); ++c) {
            shard.chipCycles[plan.originalChip[c]] +=
                scaled(layer_chips[c].cycles);
        }
        if (faulty) {
            faults.linkRetries += scaled(exchange.retries);
            faults.backoffCycles += scaled(exchange.backoffCycles);
            faults.timeouts += scaled(exchange.timeouts);
            faults.stallCycles += scaled(stall_cycles);
        }

        if (plan.archLayer == 0) {
            run.inputLayer = std::move(merged);
            run.total.merge(run.inputLayer);
        } else {
            run.sampledLayers.push_back(std::move(merged));
            sampled_sum.merge(run.sampledLayers.back());
        }
    }
    sampled_sum.scale(repeats);
    run.total.merge(sampled_sum);

    if (opts.pipeline) {
        // Replace the serial cycle extrapolation with the chained
        // timeline. Work counts (traffic, MACs, cache accesses) are
        // timeline-independent and keep the serial extrapolation.
        // Both gating granularities are chained (pure arithmetic
        // over the already-simulated schedules), so every pipelined
        // run carries the serial/per-layer/per-tile triple. Composed
        // schedules satisfy criticalEnd() == cycles and their
        // exchange rides the input-DMA prefix, so the pipeline hides
        // it behind the previous layer's drain where it fits.
        const NetworkSchedule layer_sched = chainSampledSchedules(
            run, arch_intermediate, opts.includeInputLayer,
            PipelineGating::PerLayer);
        const NetworkSchedule tile_sched = chainSampledSchedules(
            run, arch_intermediate, opts.includeInputLayer,
            PipelineGating::PerTile);
        SGCN_ASSERT(layer_sched.totalCycles <= run.total.cycles,
                    "pipelined total (", layer_sched.totalCycles,
                    ") exceeds the serial total (", run.total.cycles,
                    ") it replaces: a layer schedule must be "
                    "inconsistent with its cycle count");
        SGCN_ASSERT(tile_sched.totalCycles <= layer_sched.totalCycles,
                    "per-tile-gated total (", tile_sched.totalCycles,
                    ") exceeds the per-layer-gated total (",
                    layer_sched.totalCycles,
                    "): the tile gate must refine the layer gate");
        const NetworkSchedule &sched =
            *opts.pipeline == PipelineGating::PerTile ? tile_sched
                                                       : layer_sched;
        run.pipeline.enabled = true;
        run.pipeline.gating = *opts.pipeline;
        run.pipeline.serialCycles = run.total.cycles;
        run.pipeline.pipelinedCycles = sched.totalCycles;
        run.pipeline.overlapSavedCycles =
            run.total.cycles - sched.totalCycles;
        run.pipeline.perLayerCycles = layer_sched.totalCycles;
        run.pipeline.perTileCycles = tile_sched.totalCycles;
        run.pipeline.tileSavedCycles =
            layer_sched.totalCycles - tile_sched.totalCycles;
        const PipelinedLayer &bottleneck = sched.bottleneckStage();
        run.pipeline.steadyStateAdvance = bottleneck.steadyCost();
        run.pipeline.criticalPhase =
            bottleneck.schedule.longestPhase();
        run.total.cycles = sched.totalCycles;
    }

    if (faulty) {
        faults.survivingChips =
            static_cast<unsigned>(original_chip.size());
        faults.dramRetries = run.total.dramRetries;
    }
    if (opts.chips > 1) {
        // Exports report the post-repartition topology: slot i of
        // chipCycles is the chip shard.chipIds[i]. Clean runs keep
        // the identity mapping; after failures the dead chips'
        // half-accumulated slots are dropped so per-chip tables and
        // the bottleneck index only the survivors.
        shard.enabled = true;
        shard.chips = chips;
        shard.partitionPolicy = partitionPolicyName(opts.partitionPolicy);
        shard.linkName = opts.link.name;
        shard.haloVertices = halo_vertices;
        shard.chipIds = original_chip;
        std::vector<Cycle> survivor_cycles;
        for (unsigned id : original_chip)
            survivor_cycles.push_back(shard.chipCycles[id]);
        shard.chipCycles = std::move(survivor_cycles);
        run.shard = std::move(shard);
    }
    priceRun(config, run);
    return run;
}

void
priceRun(const AccelConfig &config, RunResult &run)
{
    // A one-chip run has no shard block: one chip, alive. Otherwise
    // every chip owns a private memory stack, so the summed traffic
    // spreads over the surviving chips' stacks (a failed chip's
    // stack is lost), while TDP and area replicate over every chip
    // the run was built for.
    ShardStats &shard = run.shard;
    const unsigned chips = shard.enabled ? shard.chips : 1;
    const auto live_chips = static_cast<unsigned>(
        shard.enabled ? shard.chipIds.size() : 1);
    run.total.bwUtil = config.dram.bandwidthUtil(
        run.total.traffic.totalLines(), run.total.cycles, live_chips);
    if (shard.enabled) {
        shard.bottleneckChipCycles = *std::max_element(
            shard.chipCycles.begin(), shard.chipCycles.end());
        if (run.total.cycles > 0) {
            shard.linkBusyFraction = std::min(
                1.0, static_cast<double>(shard.linkBusyCycles) /
                         static_cast<double>(run.total.cycles));
        }
    }

    const EnergyModel energy_model(
        {}, config.dram.generation == DramGeneration::Hbm1);
    const RunCounts counts{run.total.macs, run.total.cacheAccesses,
                           run.total.traffic.totalLines()};
    AccelDescriptor desc = config.energyDesc;
    desc.cacheKb =
        static_cast<double>(config.cache.sizeBytes) / 1024.0;
    run.energy = energy_model.dynamicEnergy(counts, desc.cacheKb);
    // Dynamic energy already sums through the per-chip counts.
    run.tdpWatts = energy_model.tdpWatts(desc) * chips;
    run.areaMm2 = energy_model.areaMm2(desc) * chips;
}

RunResult
runNetwork(const AccelConfig &config, const Dataset &dataset,
           const NetworkSpec &net, const RunOptions &opts)
{
    return tryRunNetwork(config, dataset, net, opts).orFatal();
}

Expected<std::vector<RunResult>>
tryRunAll(const std::vector<AccelConfig> &configs,
          const Dataset &dataset, const NetworkSpec &net,
          const RunOptions &opts)
{
    std::vector<RunResult> results(configs.size());
    const Status status =
        parallelTry(opts.jobs, configs.size(), [&](std::size_t i) {
            Expected<RunResult> r =
                tryRunNetwork(configs[i], dataset, net, opts);
            if (!r.ok())
                return Status(r.error());
            results[i] = std::move(r.value());
            return Status::success();
        });
    if (opts.releaseArtifacts)
        clearSweepArtifacts();
    if (!status.ok())
        return status.error();
    return results;
}

std::vector<RunResult>
runAll(const std::vector<AccelConfig> &configs, const Dataset &dataset,
       const NetworkSpec &net, const RunOptions &opts)
{
    return tryRunAll(configs, dataset, net, opts).orFatal();
}

void
clearSweepArtifacts()
{
    StreamArtifactCache::instance().clear();
    PreprocessCache::instance().clear();
}

double
speedupOver(const RunResult &baseline, const RunResult &contender)
{
    SGCN_ASSERT(baseline.total.cycles > 0,
                "baseline run '", baseline.accelName, "' on ",
                baseline.datasetAbbrev,
                " simulated zero cycles; speedup is undefined");
    SGCN_ASSERT(contender.total.cycles > 0,
                "contender run '", contender.accelName, "' on ",
                contender.datasetAbbrev,
                " simulated zero cycles; speedup is undefined");
    return static_cast<double>(baseline.total.cycles) /
           static_cast<double>(contender.total.cycles);
}

} // namespace sgcn
