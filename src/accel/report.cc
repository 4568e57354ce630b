#include "accel/report.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace sgcn
{

namespace
{

using Run = const RunResult &;

// One row per metric: CSV column, stat key, accessor. The accessor's
// return type is the metric's kind.
#define INT(expr) [](Run r) -> std::uint64_t { return expr; }
#define REAL(expr) [](Run r) -> double { return expr; }
#define TEXT(expr) [](Run r) -> std::string { return expr; }

template <TrafficClass cls>
std::uint64_t
classLines(Run r)
{
    return r.total.traffic.classLines(cls);
}

constexpr MetricField kTotals[] = {
    {"accel", nullptr, TEXT(r.accelName)},
    {"dataset", nullptr, TEXT(r.datasetAbbrev)},
    {"cycles", "cycles", INT(r.total.cycles)},
    {"agg_cycles", "cycles.aggregation", INT(r.total.aggCycles)},
    {"comb_cycles", "cycles.combination", INT(r.total.combCycles)},
    {"lines_total", "offchip.lines", INT(r.total.traffic.totalLines())},
    {"lines_topology", "offchip.lines.topology",
     &classLines<TrafficClass::Topology>},
    {"lines_feature_in", "offchip.lines.feature_in",
     &classLines<TrafficClass::FeatureIn>},
    {"lines_feature_out", "offchip.lines.feature_out",
     &classLines<TrafficClass::FeatureOut>},
    {"lines_weight", "offchip.lines.weight",
     &classLines<TrafficClass::Weight>},
    {"lines_partial_sum", "offchip.lines.partial_sum",
     &classLines<TrafficClass::PartialSum>},
    {"cache_accesses", "cache.accesses", INT(r.total.cacheAccesses)},
    {"cache_hits", "cache.hits", INT(r.total.cacheHits)},
    {nullptr, "cache.hit_rate", REAL(r.cacheHitRate())},
    {"macs", "compute.macs", INT(r.total.macs)},
    {"bw_util", "dram.bw_util", REAL(r.total.bwUtil)},
    {"energy_compute_j", "energy.compute_j", REAL(r.energy.computeJ)},
    {"energy_cache_j", "energy.cache_j", REAL(r.energy.cacheJ)},
    {"energy_dram_j", "energy.dram_j", REAL(r.energy.dramJ)},
    {nullptr, "energy.total_j", REAL(r.energy.total())},
    {"tdp_w", "power.tdp_w", REAL(r.tdpWatts)},
    {"area_mm2", "area.mm2", REAL(r.areaMm2)},
};

constexpr MetricField kPipeline[] = {
    {"pipelined", nullptr, INT(r.pipeline.enabled)},
    {"pipeline_gating", nullptr,
     TEXT(r.pipeline.enabled ? pipelineGatingName(r.pipeline.gating)
                             : "")},
    {"serial_cycles", "pipeline.serial_cycles",
     INT(r.pipeline.serialCycles)},
    {"overlap_saved_cycles", "pipeline.overlap_saved_cycles",
     INT(r.pipeline.overlapSavedCycles)},
    {"per_layer_cycles", "pipeline.per_layer_cycles",
     INT(r.pipeline.perLayerCycles)},
    {"per_tile_cycles", "pipeline.per_tile_cycles",
     INT(r.pipeline.perTileCycles)},
    {"tile_saved_cycles", "pipeline.tile_saved_cycles",
     INT(r.pipeline.tileSavedCycles)},
    {"steady_advance_cycles", "pipeline.steady_advance_cycles",
     INT(r.pipeline.steadyStateAdvance)},
    {"critical_phase", nullptr,
     TEXT(r.pipeline.enabled ? layerPhaseName(r.pipeline.criticalPhase)
                             : "")},
};

constexpr MetricField kShard[] = {
    {"chips", "shard.chips", INT(r.shard.chips)},
    {"partition_policy", nullptr, TEXT(r.shard.partitionPolicy)},
    {"link", nullptr, TEXT(r.shard.linkName)},
    {"halo_vertices", "shard.halo_vertices", INT(r.shard.haloVertices)},
    {"exchange_bytes", "shard.exchange_bytes", INT(r.shard.exchangeBytes)},
    {"exchange_cycles", "shard.exchange_cycles",
     INT(r.shard.exchangeCycles)},
    {"link_busy_cycles", "shard.link_busy_cycles",
     INT(r.shard.linkBusyCycles)},
    {"link_busy_frac", "shard.link_busy_frac",
     REAL(r.shard.linkBusyFraction)},
    {"bottleneck_chip_cycles", "shard.bottleneck_chip_cycles",
     INT(r.shard.bottleneckChipCycles)},
};

/** The canonical spec separates clauses with ','; the CSV cell uses
 *  ';' so the row's arity stays intact. */
std::string
faultSpecCell(Run r)
{
    std::string spec = r.faults.spec;
    std::replace(spec.begin(), spec.end(), ',', ';');
    return spec;
}

constexpr MetricField kFaults[] = {
    {"faults", nullptr, INT(r.faults.enabled)},
    {"fault_spec", nullptr, &faultSpecCell},
    {"fault_seed", nullptr, INT(r.faults.seed)},
    {"degraded_mode", nullptr, TEXT(r.faults.degradedMode)},
    {"link_retries", "fault.link_retries", INT(r.faults.linkRetries)},
    {"backoff_cycles", "fault.backoff_cycles",
     INT(r.faults.backoffCycles)},
    {"link_timeouts", "fault.link_timeouts", INT(r.faults.timeouts)},
    {"dram_retries", "fault.dram_retries", INT(r.faults.dramRetries)},
    {"stall_cycles", "fault.stall_cycles", INT(r.faults.stallCycles)},
    {"recovery_cycles", "fault.recovery_cycles",
     INT(r.faults.recoveryCycles)},
    {"failed_chips", "fault.failed_chips", INT(r.faults.failedChips)},
    {"surviving_chips", "fault.surviving_chips",
     INT(r.faults.survivingChips)},
    {"repartitions", "fault.repartitions", INT(r.faults.repartitions)},
    {nullptr, "fault.recovered_layers",
     INT(r.faults.recoveredLayers.size())},
};

constexpr MetricField kServe[] = {
    {"serve_requests", "serve.requests", INT(r.serve.requests)},
    {"serve_batches", "serve.batches", INT(r.serve.batches)},
    {"serve_arrival", nullptr,
     TEXT(r.serve.enabled ? (r.serve.poisson ? "poisson" : "fixed")
                          : "")},
    {"serve_offered_qps", "serve.offered_qps", REAL(r.serve.offeredQps)},
    {"serve_max_batch", nullptr, INT(r.serve.maxBatch)},
    {"serve_linger_cycles", nullptr, INT(r.serve.maxLingerCycles)},
    {"serve_p50_cycles", "serve.p50_cycles", INT(r.serve.p50Cycles)},
    {"serve_p95_cycles", "serve.p95_cycles", INT(r.serve.p95Cycles)},
    {"serve_p99_cycles", "serve.p99_cycles", INT(r.serve.p99Cycles)},
    {"serve_qps", "serve.sustained_qps", REAL(r.serve.sustainedQps)},
    {"serve_mean_batch", "serve.mean_batch", REAL(r.serve.meanOccupancy)},
    {"serve_peak_batch", "serve.peak_batch", INT(r.serve.peakOccupancy)},
    {"serve_makespan_cycles", "serve.makespan_cycles",
     INT(r.serve.makespanCycles)},
    {"serve_subgraph_vertices", "serve.subgraph_vertices",
     INT(r.serve.subgraphVertices)},
    {"serve_subgraph_edges", "serve.subgraph_edges",
     INT(r.serve.subgraphEdges)},
};

#undef INT
#undef REAL
#undef TEXT

constexpr MetricBlock kBlocks[] = {
    {CsvColumns::Always, [](Run) { return true; }, kTotals},
    {CsvColumns::Always, [](Run r) { return r.pipeline.enabled; },
     kPipeline},
    {CsvColumns::Always, [](Run r) { return r.shard.enabled; }, kShard},
    {CsvColumns::WhenAnyRunHasIt, [](Run r) { return r.faults.enabled; },
     kFaults},
    {CsvColumns::WhenAnyRunHasIt, [](Run r) { return r.serve.enabled; },
     kServe},
};

/** Every kind through operator<<: integers exactly, reals at the
 *  stream's default precision. */
void
printMetric(std::ostream &os, const MetricValue &value)
{
    std::visit([&](const auto &v) { os << v; }, value);
}

} // anonymous namespace

MetricValue
MetricField::value(const RunResult &run) const
{
    return std::visit([&](auto getter) -> MetricValue { return getter(run); },
                      get);
}

std::span<const MetricBlock>
metricBlocks()
{
    return kBlocks;
}

void
writeRunsCsv(const std::vector<RunResult> &runs,
             const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write CSV: ", path);
    std::vector<const MetricField *> columns;
    for (const MetricBlock &block : kBlocks) {
        if (block.csv == CsvColumns::WhenAnyRunHasIt &&
            std::none_of(runs.begin(), runs.end(), block.enabled)) {
            continue;
        }
        for (const MetricField &field : block.fields) {
            if (field.csv)
                columns.push_back(&field);
        }
    }
    for (std::size_t i = 0; i < columns.size(); ++i)
        out << (i ? "," : "") << columns[i]->csv;
    out << '\n';
    for (const RunResult &run : runs) {
        for (std::size_t i = 0; i < columns.size(); ++i) {
            out << (i ? "," : "");
            printMetric(out, columns[i]->value(run));
        }
        out << '\n';
    }
}

std::map<std::string, MetricValue>
runResultStats(const RunResult &run)
{
    std::map<std::string, MetricValue> stats;
    for (const MetricBlock &block : kBlocks) {
        if (!block.enabled(run))
            continue;
        for (const MetricField &field : block.fields) {
            if (field.stat)
                stats.emplace(field.stat, field.value(run));
        }
    }
    return stats;
}

std::string
statsDump(const RunResult &run, const std::string &indent)
{
    std::ostringstream os;
    for (const auto &[key, value] : runResultStats(run)) {
        os << indent << key << " = ";
        printMetric(os, value);
        os << '\n';
    }
    return os.str();
}

std::string
pipelineSummaryLine(const RunResult &run)
{
    if (!run.pipeline.enabled)
        return "";
    std::ostringstream os;
    os << run.accelName << ": " << run.pipeline.pipelinedCycles
       << " cycles pipelined (" << pipelineGatingName(run.pipeline.gating)
       << ") vs " << run.pipeline.serialCycles << " serial (saved "
       << run.pipeline.overlapSavedCycles << ", per-tile wins "
       << run.pipeline.tileSavedCycles
       << " over per-layer, steady-state advance "
       << run.pipeline.steadyStateAdvance << "/layer, critical phase "
       << layerPhaseName(run.pipeline.criticalPhase) << ")";
    return os.str();
}

std::string
shardSummaryLine(const RunResult &run)
{
    if (!run.shard.enabled)
        return "";
    std::ostringstream os;
    os << run.accelName << ": " << run.shard.chips << " chips ("
       << run.shard.partitionPolicy << " over " << run.shard.linkName
       << "), " << run.shard.haloVertices << " halo vertices, "
       << static_cast<double>(run.shard.exchangeBytes) / 1.0e6
       << " MB exchanged in " << run.shard.exchangeCycles
       << " cycles, link busy "
       << run.shard.linkBusyFraction * 100.0
       << "%, bottleneck chip " << run.shard.bottleneckChipCycles
       << " cycles";
    return os.str();
}

std::string
faultSummaryLine(const RunResult &run)
{
    if (!run.faults.enabled)
        return "";
    const FaultStats &f = run.faults;
    std::ostringstream os;
    os << run.accelName << ": faults=" << f.spec << " ("
       << f.degradedMode << "): " << f.linkRetries
       << " link retries (" << f.backoffCycles << " backoff cycles, "
       << f.timeouts << " timeouts), " << f.dramRetries
       << " DRAM retries, " << f.stallCycles << " stall cycles";
    if (f.failedChips > 0) {
        os << ", " << f.failedChips << " chip(s) failed -> "
           << f.survivingChips << " survivors ("
           << f.repartitions << " repartition(s), "
           << f.recoveryCycles << " recovery cycles)";
    }
    return os.str();
}

std::string
serveSummaryLine(const RunResult &run)
{
    if (!run.serve.enabled)
        return "";
    const ServeStats &s = run.serve;
    std::ostringstream os;
    os << run.accelName << ": " << s.requests << " requests in "
       << s.batches << " batches ("
       << (s.poisson ? "poisson" : "fixed") << " @ " << s.offeredQps
       << " qps offered, " << s.sustainedQps
       << " sustained), latency p50/p95/p99 = " << s.p50Cycles << '/'
       << s.p95Cycles << '/' << s.p99Cycles
       << " cycles, occupancy mean " << s.meanOccupancy << " peak "
       << s.peakOccupancy;
    return os.str();
}

namespace
{

void
writeLayerScheduleRows(std::ofstream &out, const RunResult &run,
                       unsigned layer, const LayerSchedule &schedule,
                       bool recovered_column)
{
    // Trailing "recovered" cell, present only when some exported run
    // replayed a layer on a post-repartition topology — fault-free
    // schedule CSVs stay byte-identical.
    const char *tail = "";
    if (recovered_column) {
        const auto &replayed = run.faults.recoveredLayers;
        const bool recovered =
            std::find(replayed.begin(), replayed.end(), layer) !=
            replayed.end();
        tail = recovered ? ",1" : ",0";
    }
    const auto phase = [&](LayerPhase p, const PhaseSpan &span) {
        out << run.accelName << ',' << run.datasetAbbrev << ','
            << layer << ",phase," << layerPhaseName(p) << ','
            << span.start << ',' << span.end << ',' << tail << '\n';
    };
    phase(LayerPhase::InputDma, schedule.inputDma);
    phase(LayerPhase::Aggregation, schedule.aggregation);
    phase(LayerPhase::Combination, schedule.combination);
    phase(LayerPhase::OutputDrain, schedule.outputDrain);
    for (const TileSpan &span : schedule.tileSpans) {
        out << run.accelName << ',' << run.datasetAbbrev << ','
            << layer << ",tile," << span.tile << ','
            << span.inputConsume.start << ',' << span.inputConsume.end
            << ',' << span.outputReady << tail << '\n';
    }
}

void
writeRunSchedule(std::ofstream &out, const RunResult &run,
                 const std::vector<unsigned> &sampled_layers,
                 bool recovered_column)
{
    if (run.inputLayer.schedule.criticalEnd() > 0) {
        writeLayerScheduleRows(out, run, 0, run.inputLayer.schedule,
                               recovered_column);
    }
    for (std::size_t i = 0; i < run.sampledLayers.size(); ++i) {
        const unsigned layer = i < sampled_layers.size()
                                   ? sampled_layers[i]
                                   : static_cast<unsigned>(i + 1);
        writeLayerScheduleRows(out, run, layer,
                               run.sampledLayers[i].schedule,
                               recovered_column);
    }
}

const char *
scheduleCsvHeader(bool recovered_column)
{
    return recovered_column
               ? "accel,dataset,layer,record,name,start,end,ready,"
                 "recovered\n"
               : "accel,dataset,layer,record,name,start,end,ready\n";
}

} // anonymous namespace

void
writeSchedulesCsv(const std::vector<RunResult> &runs,
                  const std::vector<unsigned> &sampled_layers,
                  const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write schedule CSV: ", path);
    // Mirror writeRunsCsv's mixed-sweep policy: when any run
    // recovered, every row carries the column so arity stays uniform.
    bool any_recovered = false;
    for (const RunResult &run : runs) {
        any_recovered =
            any_recovered || !run.faults.recoveredLayers.empty();
    }
    out << scheduleCsvHeader(any_recovered);
    for (const RunResult &run : runs)
        writeRunSchedule(out, run, sampled_layers, any_recovered);
}

} // namespace sgcn
