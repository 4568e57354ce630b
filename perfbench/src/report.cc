#include "report.hh"

#include <charconv>
#include <cmath>
#include <stdexcept>

#include "accel/result.hh"
#include "sim/types.hh"

namespace perfbench
{

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs{
        {"setup_s", "s", "lower"},
        {"wall_s", "s", "lower"},
        {"peak_rss_mb", "MB", "lower"},
        {"anchor_err", "ln", "lower"},
        {"mode_gap", "ln", "lower"},
    };
    return defs;
}

const std::vector<std::string> &
personalityNames()
{
    static const std::vector<std::string> names{
        "GCNAX", "HyGCN", "AWB-GCN", "EnGN", "I-GCN", "SGCN"};
    return names;
}

const std::vector<std::string> &
strategyNames()
{
    static const std::vector<std::string> names{
        "agg_first", "comb_first", "column_product"};
    return names;
}

const std::vector<std::string> &
pairNames()
{
    static const std::vector<std::string> names{"SGCN", "GCNAX"};
    return names;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d{
            {"graph.build_ms", "ms", "lower"},
            {"graph.partition_ms", "ms", "lower"},
            {"graph.sample_ms", "ms", "lower"},
            {"artifacts.hits", "count", "higher"},
            {"artifacts.misses", "count", "lower"},
            {"artifacts.hit_ratio", "ratio", "higher"},
            {"artifacts.bytes", "B", "lower"},
            {"artifacts.entries", "count", "lower"},
        };
        for (const std::string &s : strategyNames())
            d.push_back({"dataflow.fast_ms." + s, "ms", "lower"});
        for (const std::string &s : strategyNames())
            d.push_back({"timing.layer_ms." + s, "ms", "lower"});
        const std::vector<MetricDef> host{
            {"timing.cost_ratio", "ratio", "lower"},
            {"runner.cell_ms", "ms", "lower"},
            {"runner.self_ms", "ms", "lower"},
            {"pool.wall_ms", "ms", "lower"},
            {"pool.efficiency", "ratio", "higher"},
            {"serve.trace_ms", "ms", "lower"},
            {"serve.arrivals_ms", "ms", "lower"},
            {"serve.admit_ms", "ms", "lower"},
            {"trace.untraced_ms", "ms", "lower"},
            {"trace.traced_ms", "ms", "lower"},
            {"trace.overhead", "ratio", "lower"},
        };
        d.insert(d.end(), host.begin(), host.end());
        for (const std::string &a : personalityNames()) {
            const std::vector<MetricDef> sim{
                {"sim.cycles." + a, "cycles", "lower"},
                {"sim.agg_cycles." + a, "cycles", "lower"},
                {"sim.comb_cycles." + a, "cycles", "lower"},
                {"sim.macs." + a, "count", "lower"},
                {"mem.cache_accesses." + a, "count", "lower"},
                {"mem.cache_hit_ratio." + a, "ratio", "higher"},
                {"mem.dram_lines." + a, "lines", "lower"},
                {"mem.bw_util." + a, "ratio", "higher"},
            };
            d.insert(d.end(), sim.begin(), sim.end());
        }
        for (unsigned c = 0; c < sgcn::kNumTrafficClasses; ++c) {
            d.push_back({std::string("mem.dram_lines.") +
                             sgcn::trafficClassName(
                                 static_cast<sgcn::TrafficClass>(c)),
                         "lines", "lower"});
        }
        for (const std::string &a : pairNames()) {
            const std::vector<MetricDef> pair{
                {"shard.exchange_cycles." + a, "cycles", "lower"},
                {"shard.link_busy." + a, "ratio", "lower"},
                {"shard.bottleneck_cycles." + a, "cycles", "lower"},
                {"serve.p50_cycles." + a, "cycles", "lower"},
                {"serve.p99_cycles." + a, "cycles", "lower"},
            };
            d.insert(d.end(), pair.begin(), pair.end());
        }
        d.push_back({"serve.batches", "count", "lower"});
        d.push_back({"serve.mean_occupancy", "requests", "higher"});
        for (const std::string &a : personalityNames()) {
            for (const sgcn::LayerPhase phase :
                 {sgcn::LayerPhase::InputDma,
                  sgcn::LayerPhase::Aggregation,
                  sgcn::LayerPhase::Combination,
                  sgcn::LayerPhase::OutputDrain}) {
                d.push_back({"sim.mode_ratio." + a + "." +
                                 sgcn::layerPhaseName(phase),
                             "ratio", "higher"});
            }
        }
        return d;
    }();
    return defs;
}

void
Report::set(const std::string &name, double value)
{
    values[name] = value;
}

void
Report::add(const std::string &name, double value)
{
    values[name] += value;
}

double
Report::get(const std::string &name) const
{
    const auto it = values.find(name);
    if (it == values.end())
        throw std::logic_error("metric " + name + " was never set");
    return it->second;
}

void
Report::zeroUnset(const std::vector<MetricDef> &defs)
{
    for (const MetricDef &def : defs)
        values.try_emplace(def.name, 0.0);
}

std::string
formatNumber(double value)
{
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    if (ec != std::errc())
        throw std::logic_error("unformattable metric value");
    return std::string(buf, end);
}

std::string
Report::jsonLine(const std::vector<MetricDef> &defs, bool correct,
                 std::uint64_t attempted, std::uint64_t failed) const
{
    std::string out = std::string("{\"correct\": ") +
                      (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &def : defs) {
        const double value = get(def.name);
        if (!std::isfinite(value))
            throw std::logic_error("metric " + def.name +
                                   " is not finite");
        out += first ? "" : ", ";
        first = false;
        out += "\"" + def.name + "\": {\"value\": " +
               formatNumber(value) + ", \"unit\": \"" + def.unit +
               "\"}";
    }
    return out + "}}";
}

void
Report::printTable(std::FILE *out,
                   const std::vector<MetricDef> &defs) const
{
    for (const MetricDef &def : defs) {
        std::fprintf(out, "  %-34s %22s %-8s %s is better\n",
                     def.name.c_str(),
                     formatNumber(get(def.name)).c_str(),
                     def.unit.c_str(), def.better.c_str());
    }
}

} // namespace perfbench
