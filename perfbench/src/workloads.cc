#include "workloads.hh"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>

#include "accel/layer_engine.hh"
#include "accel/personalities.hh"
#include "accel/runner.hh"
#include "accel/stream_artifacts.hh"
#include "accel/workload.hh"
#include "gcn/sparsity_model.hh"
#include "graph/preprocess_cache.hh"
#include "serve/serve.hh"
#include "sim/stats.hh"
#include "sim/thread_pool.hh"
#include "trace.hh"

namespace perfbench
{

namespace
{

using sgcn::AccelConfig;
using sgcn::Dataset;
using sgcn::ExecutionMode;
using sgcn::LayerResult;
using sgcn::RunResult;

using Clock = std::chrono::steady_clock;

// Serving near saturation: at 16k qps batches run ~90% full while
// sustained throughput still tracks the offered rate; GCNAX falls
// behind by 32k qps.
constexpr double kServeQps = 16000.0;
constexpr unsigned kServeRequests = 4096;

/** Requests of the serve-trace timing probe (timing is ~50x fast). */
constexpr unsigned kServeProbeRequests = 128;

constexpr unsigned kChips = 4;
const char *const kScaleoutGraph = "synth:200k";

/** The sharded timing probe runs a smaller graph of the same kind:
 *  a synth:200k timing run takes minutes. */
const char *const kScaleoutProbeGraph = "synth:8k";

/** Fig. 11's SGCN geomean speedups over each baseline. */
struct Anchor
{
    const char *baseline;
    double paper;
};
constexpr Anchor kAnchors[] = {
    {"GCNAX", 1.66}, {"HyGCN", 2.71}, {"AWB-GCN", 1.73}, {"EnGN", 1.85}};

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::logic_error("median of no samples");
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2.0;
}

const char *
modeName(ExecutionMode mode)
{
    return mode == ExecutionMode::Timing ? "timing" : "fast";
}

std::string
strategyName(sgcn::DataflowKind kind)
{
    switch (kind) {
      case sgcn::DataflowKind::AggFirstRowProduct:
        return "agg_first";
      case sgcn::DataflowKind::CombFirstRowProduct:
        return "comb_first";
      case sgcn::DataflowKind::ColumnProduct:
        return "column_product";
    }
    throw std::logic_error("unknown dataflow kind");
}

/** Personalities fanned over one input in one mode. */
struct Group
{
    /** Index into the workload's instantiated datasets. */
    std::size_t dataset = 0;

    ExecutionMode mode = ExecutionMode::Fast;
    std::vector<AccelConfig> configs;
    unsigned chips = 1;

    /** Non-zero: serve a trace of this many requests per config
     *  instead of running the network once. */
    unsigned requests = 0;
};

struct Plan
{
    std::vector<std::string> datasets;

    /** The timed body, groups in order. */
    std::vector<Group> body;

    /** Untimed timing-vs-fast companions of the body for mode_gap. */
    std::vector<Group> probe;

    /** anchor_err from the body's timing cells instead of fast. */
    bool anchorTiming = false;
};

std::vector<AccelConfig>
configsNamed(const std::vector<std::string> &names)
{
    std::vector<AccelConfig> configs;
    for (const std::string &name : names)
        configs.push_back(sgcn::personalityByName(name));
    return configs;
}

Plan
planFor(WorkloadKind kind)
{
    const std::vector<AccelConfig> all = sgcn::allPersonalities();
    const std::vector<AccelConfig> pair = configsNamed(pairNames());
    const auto fast = ExecutionMode::Fast;
    const auto timing = ExecutionMode::Timing;
    Plan plan;
    switch (kind) {
      case WorkloadKind::PaperSweep:
        // fig11_performance's sweep: one fan-out per dataset.
        for (const sgcn::DatasetSpec &spec : sgcn::datasetsBySparsity()) {
            plan.body.push_back({plan.datasets.size(), fast, all});
            if (std::string(spec.abbrev) == "CR")
                plan.probe.push_back({plan.datasets.size(), timing, all});
            plan.datasets.push_back(spec.abbrev);
        }
        break;
      case WorkloadKind::TimingSmall:
        plan.datasets = {"CR", "CS"};
        plan.body = {{0, timing, all}, {1, timing, all},
                     {0, fast, all}, {1, fast, all}};
        plan.anchorTiming = true;
        break;
      case WorkloadKind::ServeTrace:
        plan.datasets = {"RD"};
        plan.body = {{0, fast, pair, 1, kServeRequests}};
        plan.probe = {{0, timing, pair, 1, kServeProbeRequests},
                      {0, fast, pair, 1, kServeProbeRequests}};
        break;
      case WorkloadKind::Scaleout:
        plan.datasets = {kScaleoutGraph, kScaleoutProbeGraph};
        plan.body = {{0, fast, pair, kChips}};
        plan.probe = {{1, timing, pair, kChips}, {1, fast, pair, kChips}};
        break;
    }
    return plan;
}

sgcn::RunOptions
runOptions(const Group &group)
{
    sgcn::RunOptions opts;
    opts.mode = group.mode;
    opts.jobs = kJobs;
    opts.chips = group.chips;
    opts.partitionPolicy = sgcn::PartitionPolicy::EdgeBalanced;
    opts.link = sgcn::LinkConfig::noc();
    return opts;
}

sgcn::ServeOptions
serveOptions(unsigned requests, std::uint64_t seed)
{
    sgcn::ServeOptions serve;
    serve.offeredQps = kServeQps;
    serve.requests = requests;
    serve.sample.seed = seed;
    return serve;
}

std::vector<Dataset>
instantiate(const Plan &plan, std::uint64_t seed, Tracer *tracer)
{
    std::vector<Dataset> data;
    for (const std::string &abbrev : plan.datasets) {
        Span span(tracer, "instantiateDataset", "graph.build", 0, abbrev);
        data.push_back(sgcn::instantiateDataset(
            sgcn::datasetByAbbrev(abbrev), 1.0, seed));
    }
    return data;
}

/** One personality on one group's input. */
struct Cell
{
    const Group *group = nullptr;
    const AccelConfig *config = nullptr;
    RunResult result;

    /** Empty while every check passes. */
    std::string failure;

    std::string
    label(const std::vector<Dataset> &data) const
    {
        std::string text = std::string(data[group->dataset].spec.abbrev) +
                           " " + config->name + " " +
                           modeName(group->mode);
        if (group->chips > 1)
            text += " chips=" + std::to_string(group->chips);
        if (group->requests > 0)
            text += " requests=" + std::to_string(group->requests);
        return text;
    }

    /** The input, independent of mode: pairs fast with timing. */
    std::tuple<std::size_t, unsigned, unsigned, std::string>
    input() const
    {
        return {group->dataset, group->chips, group->requests,
                config->name};
    }
};

void
settle(Cell &cell, sgcn::Expected<RunResult> outcome)
{
    if (outcome.ok())
        cell.result = std::move(outcome.value());
    else
        cell.failure = outcome.error().message;
}

/**
 * Run @p groups in order: network groups fan their personalities
 * out over kJobs like runAll; serve groups run personalities one
 * after another like tryServeAll, the batches fanning out inside.
 */
std::vector<Cell>
runGroups(const std::vector<Group> &groups,
          const std::vector<Dataset> &data, std::uint64_t seed,
          Tracer *tracer)
{
    const sgcn::NetworkSpec net;
    std::vector<Cell> cells;
    for (const Group &group : groups) {
        for (const AccelConfig &config : group.configs)
            cells.push_back(Cell{&group, &config, {}, {}});
    }
    std::size_t first = 0;
    for (const Group &group : groups) {
        Cell *own = cells.data() + first;
        first += group.configs.size();
        const Dataset &dataset = data[group.dataset];
        const sgcn::RunOptions opts = runOptions(group);
        if (group.requests > 0) {
            const sgcn::ServeOptions serve =
                serveOptions(group.requests, seed);
            for (std::size_t i = 0; i < group.configs.size(); ++i) {
                Span span(tracer, "tryServeTrace", "serve.trace", 0,
                          own[i].label(data));
                settle(own[i],
                       sgcn::tryServeTrace(*own[i].config, dataset, net,
                                           opts, serve));
            }
            continue;
        }
        Span pool(tracer, "runAll", "pool", 0, dataset.spec.abbrev);
        sgcn::parallelFor(kJobs, group.configs.size(),
                          [&](std::size_t i) {
            Span span(tracer, "tryRunNetwork", "runner", pool.id(),
                      own[i].label(data));
            settle(own[i], sgcn::tryRunNetwork(*own[i].config, dataset,
                                               net, opts));
        });
    }
    return cells;
}

/** The per-cell output checks; see checks.hh. */
void
checkCell(Cell &cell)
{
    if (!cell.failure.empty())
        return;
    if (cell.group->requests > 0) {
        cell.failure = checkServe(cell.result, cell.group->requests);
        return;
    }
    cell.failure = checkSchedules(cell.result);
    if (cell.failure.empty() && cell.group->chips > 1)
        cell.failure = checkShards(cell.result, cell.group->chips);
}

using CellKey = std::tuple<std::size_t, unsigned, unsigned, std::string>;

/** Fast and timing cells of the same input, keyed by input. */
std::map<CellKey, std::pair<Cell *, Cell *>>
modePairs(std::vector<Cell> &cells)
{
    std::map<CellKey, std::pair<Cell *, Cell *>> pairs;
    for (Cell &cell : cells) {
        auto &slot = pairs[cell.input()];
        (cell.group->mode == ExecutionMode::Fast ? slot.first
                                                 : slot.second) = &cell;
    }
    for (auto it = pairs.begin(); it != pairs.end();) {
        if (it->second.first && it->second.second)
            ++it;
        else
            it = pairs.erase(it);
    }
    return pairs;
}

/** Equal MACs in both modes; a mismatch fails the timing cell. */
void
checkModePairs(std::vector<Cell> &cells)
{
    for (auto &[key, pair] : modePairs(cells)) {
        auto [fast, timing] = pair;
        if (fast->failure.empty() && timing->failure.empty())
            timing->failure = checkModeMacs(fast->result, timing->result);
    }
}

/** Mean over cells of |ln(timing cycles / fast cycles)|. */
double
modeGap(std::vector<Cell> &cells)
{
    double sum = 0.0;
    unsigned count = 0;
    for (auto &[key, pair] : modePairs(cells)) {
        const auto fast =
            static_cast<double>(pair.first->result.total.cycles);
        const auto timing =
            static_cast<double>(pair.second->result.total.cycles);
        if (fast > 0.0 && timing > 0.0) {
            sum += std::fabs(std::log(timing / fast));
            ++count;
        }
    }
    if (count == 0)
        throw std::runtime_error("no fast/timing cell pair for mode_gap");
    return sum / count;
}

/**
 * Mean over the paper's SGCN anchors of |ln(sim / paper)|, where sim
 * is the geomean over datasets of baseline cycles / SGCN cycles in
 * @p mode. Anchors whose baseline the workload does not run are
 * skipped.
 */
double
anchorError(const std::vector<Cell> &cells, ExecutionMode mode)
{
    std::map<std::size_t, std::map<std::string, double>> cycles;
    for (const Cell &cell : cells) {
        if (cell.group->mode == mode && cell.failure.empty())
            cycles[cell.group->dataset][cell.config->name] =
                static_cast<double>(cell.result.total.cycles);
    }
    double sum = 0.0;
    unsigned count = 0;
    for (const Anchor &anchor : kAnchors) {
        std::vector<double> ratios;
        for (const auto &[dataset, by_accel] : cycles) {
            const auto sgcn = by_accel.find("SGCN");
            const auto base = by_accel.find(anchor.baseline);
            if (sgcn != by_accel.end() && base != by_accel.end() &&
                sgcn->second > 0.0)
                ratios.push_back(base->second / sgcn->second);
        }
        if (ratios.empty())
            continue;
        sum += std::fabs(std::log(sgcn::geomean(ratios) / anchor.paper));
        ++count;
    }
    if (count == 0)
        throw std::runtime_error("no paper anchor for anchor_err");
    return sum / count;
}

void
tallyCells(const std::vector<Cell> &cells,
           const std::vector<Dataset> &data, CheckTally &tally)
{
    for (const Cell &cell : cells)
        tally.cell(cell.label(data), cell.failure);
}

/**
 * Return freed heap to the kernel and restart the process's peak-RSS
 * mark (Linux clear_refs), so the next peakRssMb() covers only what
 * runs in between, not earlier bodies or set-ups.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident memory since resetPeakRss(), in MiB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    // Without /proc: the whole process's peak.
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** The untraced run: end-to-end metrics. */
WorkloadOutcome
runUntraced(const Plan &plan, const BenchArgs &args)
{
    WorkloadOutcome out;
    // One untimed set-up first: the first touches of a new process's
    // heap cost up to several steady set-ups, which would otherwise
    // swing the median of a short run's few set-ups.
    std::vector<Dataset> data = instantiate(plan, args.seed, nullptr);
    std::vector<double> setups;
    const auto setup_begin = Clock::now();
    while (setups.size() < kSetupMinRepeats ||
           (setups.size() < kSetupMaxRepeats &&
            secondsSince(setup_begin) < kSetupSeconds)) {
        data.clear();
        const auto start = Clock::now();
        data = instantiate(plan, args.seed, nullptr);
        setups.push_back(secondsSince(start));
    }

    std::vector<double> walls, peaks;
    std::vector<Cell> first;
    const auto begin = Clock::now();
    do {
        sgcn::clearSweepArtifacts();
        resetPeakRss();
        const auto start = Clock::now();
        std::vector<Cell> cells =
            runGroups(plan.body, data, args.seed, nullptr);
        walls.push_back(secondsSince(start));
        peaks.push_back(peakRssMb());
        for (std::size_t i = 0; i < cells.size(); ++i) {
            checkCell(cells[i]);
            if (!first.empty() && cells[i].failure.empty() &&
                first[i].failure.empty())
                cells[i].failure =
                    checkRepeat(first[i].result, cells[i].result);
        }
        if (first.empty())
            first = std::move(cells);
        else
            tallyCells(cells, data, out.tally);
    } while (secondsSince(begin) < args.seconds);

    sgcn::clearSweepArtifacts();
    std::vector<Cell> probe =
        runGroups(plan.probe, data, args.seed, nullptr);
    for (Cell &cell : probe)
        checkCell(cell);
    std::vector<Cell> fidelity = std::move(first);
    const std::size_t body_cells = fidelity.size();
    std::move(probe.begin(), probe.end(), std::back_inserter(fidelity));
    checkModePairs(fidelity);
    tallyCells(fidelity, data, out.tally);

    Report &report = out.report;
    report.set("setup_s", median(setups));
    report.set("wall_s", median(walls));
    report.set("peak_rss_mb", median(peaks));
    report.set("anchor_err",
               anchorError({fidelity.begin(),
                            fidelity.begin() +
                                static_cast<std::ptrdiff_t>(body_cells)},
                           plan.anchorTiming ? ExecutionMode::Timing
                                             : ExecutionMode::Fast));
    report.set("mode_gap", modeGap(fidelity));
    out.samples = walls;
    return out;
}

/**
 * Re-run the layers tryRunNetwork simulated for @p cell, each
 * LayerEngine::run in its own span. A monolithic replay must match
 * the runner's layer cycles exactly; returns the mismatch if not.
 */
std::string
replayCell(const Cell &cell, const Dataset &dataset, Tracer *tracer,
           std::uint64_t parent)
{
    const sgcn::NetworkSpec net;
    const sgcn::RunOptions opts = runOptions(*cell.group);
    const AccelConfig &config = *cell.config;
    std::shared_ptr<const sgcn::CsrGraph> reordered;
    const sgcn::CsrGraph *graph = &dataset.graph;
    if (config.islandReorder) {
        reordered = sgcn::PreprocessCache::instance().islandized(
            dataset.graph);
        graph = reordered.get();
    }
    std::vector<unsigned> arch_layers{0};
    for (unsigned idx : sgcn::sampleLayerIndices(
             net.layers - 1, opts.sampledIntermediateLayers))
        arch_layers.push_back(idx + 1);

    std::shared_ptr<const sgcn::GraphPartition> partition;
    if (opts.chips > 1) {
        partition = sgcn::StreamArtifactCache::instance().partition(
            *graph, opts.chips, opts.partitionPolicy);
    }
    for (std::size_t i = 0; i < arch_layers.size(); ++i) {
        const unsigned arch = arch_layers[i];
        const std::string layer =
            std::string(opts.mode == ExecutionMode::Fast
                            ? "dataflow.fast_ms."
                            : "timing.layer_ms.") +
            strategyName(sgcn::LayerEngine::effectiveDataflow(
                config, arch == 0));
        const std::string detail = std::string(dataset.spec.abbrev) +
                                   " " + config.name + " layer " +
                                   std::to_string(arch);
        if (!partition) {
            sgcn::LayerContext ctx =
                arch == 0 ? sgcn::makeInputLayer(dataset, *graph, config,
                                                 net)
                          : sgcn::makeIntermediateLayer(
                                dataset, *graph, config, net, arch);
            sgcn::LayerEngine engine(config, ctx);
            LayerResult replayed;
            {
                Span span(tracer, "LayerEngine::run", layer, parent,
                          detail);
                replayed = engine.run(opts.mode);
            }
            const LayerResult &ran =
                i == 0 ? cell.result.inputLayer
                       : cell.result.sampledLayers[i - 1];
            if (replayed.cycles != ran.cycles)
                return "replayed " + detail + " took " +
                       std::to_string(replayed.cycles) +
                       " cycles, the runner's " +
                       std::to_string(ran.cycles);
            continue;
        }
        const unsigned chips = partition->numChips();
        std::vector<sgcn::LayerContext> contexts;
        for (unsigned c = 0; c < chips; ++c) {
            contexts.push_back(
                arch == 0 ? sgcn::makeChipInputLayer(dataset, *partition,
                                                     c, config, net)
                          : sgcn::makeChipIntermediateLayer(
                                dataset, *partition, c, config, net,
                                arch));
        }
        // The chips run concurrently, so the layer's engine time is
        // the fan-out's wall time, not the sum over chips.
        Span fan_out(tracer, "LayerEngine::run on every chip", layer,
                     parent, detail);
        sgcn::parallelFor(opts.jobs, chips, [&](std::size_t c) {
            sgcn::LayerEngine engine(config, contexts[c]);
            Span span(tracer, "LayerEngine::run", "replay.chip",
                      fan_out.id(), detail + " chip " + std::to_string(c));
            engine.run(opts.mode);
        });
    }
    return {};
}

/** Exact simulated counts of the body, summed per personality. */
void
reportSimCounts(const std::vector<Cell> &cells, Report &report)
{
    std::map<std::string, double> hits, accesses, bw_util, cells_of;
    std::map<std::string, double> link_busy, shard_cells;
    using PhaseSums = std::array<double, 4>;
    std::map<std::string, PhaseSums> fast_phase, timing_phase;
    for (const Cell &cell : cells) {
        const std::string &a = cell.config->name;
        const LayerResult &total = cell.result.total;
        report.add("sim.cycles." + a, static_cast<double>(total.cycles));
        report.add("sim.agg_cycles." + a,
                   static_cast<double>(total.aggCycles));
        report.add("sim.comb_cycles." + a,
                   static_cast<double>(total.combCycles));
        report.add("sim.macs." + a, static_cast<double>(total.macs));
        report.add("mem.cache_accesses." + a,
                   static_cast<double>(total.cacheAccesses));
        report.add("mem.dram_lines." + a,
                   static_cast<double>(total.traffic.totalLines()));
        bw_util[a] += total.bwUtil;
        hits[a] += static_cast<double>(total.cacheHits);
        accesses[a] += static_cast<double>(total.cacheAccesses);
        cells_of[a] += 1.0;
        for (unsigned c = 0; c < sgcn::kNumTrafficClasses; ++c) {
            report.add(std::string("mem.dram_lines.") +
                           sgcn::trafficClassName(
                               static_cast<sgcn::TrafficClass>(c)),
                       static_cast<double>(total.traffic.readLines[c] +
                                           total.traffic.writeLines[c]));
        }
        const sgcn::ShardStats &shard = cell.result.shard;
        if (shard.enabled) {
            report.add("shard.exchange_cycles." + a,
                       static_cast<double>(shard.exchangeCycles));
            link_busy[a] += shard.linkBusyFraction;
            shard_cells[a] += 1.0;
            report.add("shard.bottleneck_cycles." + a,
                       static_cast<double>(shard.bottleneckChipCycles));
        }
        const sgcn::ServeStats &serve = cell.result.serve;
        if (serve.enabled) {
            report.add("serve.p50_cycles." + a,
                       static_cast<double>(serve.p50Cycles));
            report.add("serve.p99_cycles." + a,
                       static_cast<double>(serve.p99Cycles));
            report.set("serve.batches", serve.batches);
            report.set("serve.mean_occupancy", serve.meanOccupancy);
        }
        PhaseSums &phases = cell.group->mode == ExecutionMode::Fast
                                ? fast_phase[a]
                                : timing_phase[a];
        std::vector<const LayerResult *> layers{&cell.result.inputLayer};
        for (const LayerResult &layer : cell.result.sampledLayers)
            layers.push_back(&layer);
        for (const LayerResult *layer : layers) {
            const sgcn::LayerSchedule &s = layer->schedule;
            phases[0] += static_cast<double>(s.inputDma.duration());
            phases[1] += static_cast<double>(s.aggregation.duration());
            phases[2] += static_cast<double>(s.combination.duration());
            phases[3] += static_cast<double>(s.outputDrain.duration());
        }
    }
    for (const auto &[a, n] : cells_of) {
        report.set("mem.cache_hit_ratio." + a,
                   accesses[a] > 0.0 ? hits[a] / accesses[a] : 0.0);
        report.set("mem.bw_util." + a, bw_util[a] / n);
    }
    for (const auto &[a, n] : shard_cells)
        report.set("shard.link_busy." + a, link_busy[a] / n);
    for (const auto &[a, timing] : timing_phase) {
        const PhaseSums &fast = fast_phase[a];
        for (unsigned p = 0; p < 4; ++p) {
            report.set(std::string("sim.mode_ratio.") + a + "." +
                           sgcn::layerPhaseName(
                               static_cast<sgcn::LayerPhase>(p)),
                       timing[p] > 0.0 ? fast[p] / timing[p] : 0.0);
        }
    }
}

/** The traced run: per-layer metrics and the Chrome trace. */
WorkloadOutcome
runTraced(const Plan &plan, const BenchArgs &args)
{
    WorkloadOutcome out;
    Tracer tracer(std::string(workloadName(args.workload)) + "/seed-" +
                  std::to_string(args.seed));
    const std::vector<Dataset> data = instantiate(plan, args.seed, &tracer);
    Report &report = out.report;

    // Alternate untraced and traced bodies; only the first traced
    // body's spans and results feed the metrics.
    std::vector<double> untraced, traced;
    std::vector<Cell> cells;
    const auto begin = Clock::now();
    do {
        sgcn::clearSweepArtifacts();
        auto start = Clock::now();
        runGroups(plan.body, data, args.seed, nullptr);
        untraced.push_back(secondsSince(start));

        sgcn::clearSweepArtifacts();
        Tracer scratch(tracer.runId());
        start = Clock::now();
        std::vector<Cell> ran = runGroups(
            plan.body, data, args.seed, cells.empty() ? &tracer : &scratch);
        traced.push_back(secondsSince(start));
        if (cells.empty()) {
            const sgcn::ArtifactStats stats =
                sgcn::StreamArtifactCache::instance().stats();
            report.set("artifacts.hits", static_cast<double>(stats.hits));
            report.set("artifacts.misses",
                       static_cast<double>(stats.misses));
            const double lookups =
                static_cast<double>(stats.hits + stats.misses);
            report.set("artifacts.hit_ratio",
                       lookups > 0.0 ? stats.hits / lookups : 0.0);
            report.set("artifacts.bytes", static_cast<double>(stats.bytes));
            report.set("artifacts.entries",
                       static_cast<double>(stats.entries));
            cells = std::move(ran);
        }
    } while (secondsSince(begin) < args.seconds);
    for (Cell &cell : cells)
        checkCell(cell);
    checkModePairs(cells);
    tallyCells(cells, data, out.tally);

    // The benchmark's own calls into the graph and serve modules.
    for (const Group &group : plan.body) {
        const Dataset &dataset = data[group.dataset];
        if (group.chips > 1) {
            sgcn::clearSweepArtifacts();
            Span span(&tracer, "StreamArtifactCache::partition",
                      "graph.partition", 0, dataset.spec.abbrev);
            sgcn::StreamArtifactCache::instance().partition(
                dataset.graph, group.chips,
                runOptions(group).partitionPolicy);
        }
        if (group.requests == 0)
            continue;
        const sgcn::ServeOptions serve =
            serveOptions(group.requests, args.seed);
        std::vector<sgcn::Cycle> arrivals;
        {
            Span span(&tracer, "generateArrivals", "serve.arrivals");
            arrivals = sgcn::generateArrivals(serve);
        }
        std::vector<sgcn::RequestBatch> batches;
        {
            Span span(&tracer, "admitBatches", "serve.admit");
            batches = sgcn::admitBatches(arrivals, serve.maxBatch,
                                         serve.maxLingerCycles);
        }
        std::uint64_t next = 0;
        for (const sgcn::RequestBatch &batch : batches) {
            if (batch.first != next)
                break;
            next += batch.count;
            Span span(&tracer, "sampleBatchSubgraph", "graph.sample");
            sgcn::sampleBatchSubgraph(dataset.graph, batch.first,
                                      batch.count, serve.sample);
        }
        out.tally.cell("admission", next == serve.requests
                                        ? ""
                                        : "a request was left unbatched");
    }

    // LayerEngine::run replays of every network cell, fanned out
    // like the body, from a cold artifact cache like the body.
    sgcn::clearSweepArtifacts();
    std::size_t first = 0;
    for (const Group &group : plan.body) {
        const std::size_t count = group.configs.size();
        if (group.requests == 0) {
            Span pool(&tracer, "replay", "replay", 0,
                      data[group.dataset].spec.abbrev);
            std::vector<std::string> failures(count);
            sgcn::parallelFor(kJobs, count, [&](std::size_t i) {
                const Cell &cell = cells[first + i];
                if (cell.failure.empty())
                    failures[i] = replayCell(cell, data[group.dataset],
                                             &tracer, pool.id());
            });
            for (std::size_t i = 0; i < count; ++i) {
                out.tally.cell("replay " + cells[first + i].label(data),
                               failures[i]);
            }
        }
        first += count;
    }

    double fast_ms = 0.0, timing_ms = 0.0;
    for (const std::string &s : strategyNames()) {
        const double f = tracer.totalMs("dataflow.fast_ms." + s);
        const double t = tracer.totalMs("timing.layer_ms." + s);
        report.set("dataflow.fast_ms." + s, f);
        report.set("timing.layer_ms." + s, t);
        fast_ms += f;
        timing_ms += t;
    }
    report.set("timing.cost_ratio",
               timing_ms > 0.0 && fast_ms > 0.0 ? timing_ms / fast_ms : 0.0);
    for (const char *layer : {"graph.build", "graph.partition",
                              "graph.sample", "serve.trace",
                              "serve.arrivals", "serve.admit"}) {
        report.set(std::string(layer) + "_ms", tracer.totalMs(layer));
    }
    const double cell_ms = tracer.totalMs("runner");
    const double pool_ms = tracer.totalMs("pool");
    report.set("runner.cell_ms", cell_ms);
    report.set("runner.self_ms",
               cell_ms > 0.0 ? cell_ms - fast_ms - timing_ms : 0.0);
    report.set("pool.wall_ms", pool_ms);
    report.set("pool.efficiency",
               pool_ms > 0.0 ? cell_ms / (kJobs * pool_ms) : 0.0);
    const double untraced_ms = median(untraced) * 1000.0;
    const double traced_ms = median(traced) * 1000.0;
    report.set("trace.untraced_ms", untraced_ms);
    report.set("trace.traced_ms", traced_ms);
    report.set("trace.overhead", traced_ms / untraced_ms - 1.0);
    reportSimCounts(cells, report);
    report.zeroUnset(perLayerMetrics());

    out.samples = traced;
    out.traceJson = tracer.chromeJson();
    return out;
}

} // namespace

const char *
workloadWhy(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::PaperSweep:
        return "Fig. 11 sweep, six personalities x nine datasets, fast "
               "mode: fast dataflows, functional cache, artifact reuse";
      case WorkloadKind::TimingSmall:
        return "six personalities on CR and CS in timing and fast mode: "
               "event engines, event queue, timing cache, HBM model";
      case WorkloadKind::ServeTrace:
        return "4096-request Poisson trace on RD near saturation: "
               "sampler, per-batch subgraphs, artifact-cache misses";
      case WorkloadKind::Scaleout:
        return "synth:200k on 4 chips over NoC: streaming CSR build, "
               "partitioner, halo exchange, sharded runner";
    }
    return "invalid";
}

WorkloadOutcome
runWorkload(const BenchArgs &args)
{
    const Plan plan = planFor(args.workload);
    return args.trace ? runTraced(plan, args) : runUntraced(plan, args);
}

} // namespace perfbench
