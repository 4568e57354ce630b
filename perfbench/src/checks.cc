#include "checks.hh"

#include <algorithm>
#include <cmath>

namespace perfbench
{

namespace
{

std::string
checkLayer(const sgcn::LayerResult &layer, const std::string &which)
{
    if (layer.cycles == 0)
        return which + " simulated zero cycles";
    if (layer.schedule.criticalEnd() != layer.cycles) {
        return which + " schedule ends at " +
               std::to_string(layer.schedule.criticalEnd()) +
               " but the layer took " + std::to_string(layer.cycles) +
               " cycles";
    }
    return {};
}

bool
sameCounts(const sgcn::LayerResult &a, const sgcn::LayerResult &b)
{
    for (unsigned c = 0; c < sgcn::kNumTrafficClasses; ++c) {
        if (a.traffic.readLines[c] != b.traffic.readLines[c] ||
            a.traffic.writeLines[c] != b.traffic.writeLines[c])
            return false;
    }
    return a.cycles == b.cycles && a.aggCycles == b.aggCycles &&
           a.combCycles == b.combCycles && a.macs == b.macs &&
           a.cacheAccesses == b.cacheAccesses &&
           a.cacheHits == b.cacheHits;
}

} // namespace

void
CheckTally::cell(const std::string &what, const std::string &failure)
{
    ++attemptedCells;
    if (failure.empty())
        return;
    ++failedCells;
    if (reasons.size() < 16)
        reasons.push_back(what + ": " + failure);
}

double
CheckTally::errorRate() const
{
    return attemptedCells == 0
               ? 0.0
               : static_cast<double>(failedCells) /
                     static_cast<double>(attemptedCells);
}

std::string
checkSchedules(const sgcn::RunResult &run)
{
    std::string failure = checkLayer(run.inputLayer, "input layer");
    for (std::size_t i = 0;
         failure.empty() && i < run.sampledLayers.size(); ++i) {
        failure = checkLayer(run.sampledLayers[i],
                             "sampled layer " + std::to_string(i));
    }
    if (failure.empty() && run.sampledLayers.empty())
        failure = "no intermediate layer was simulated";
    return failure;
}

std::string
checkModeMacs(const sgcn::RunResult &fast, const sgcn::RunResult &timing)
{
    if (fast.total.macs != timing.total.macs) {
        return "fast mode did " + std::to_string(fast.total.macs) +
               " MACs, timing mode " +
               std::to_string(timing.total.macs);
    }
    return {};
}

std::string
checkServe(const sgcn::RunResult &run, unsigned requests)
{
    const sgcn::ServeStats &s = run.serve;
    if (!s.enabled)
        return "no serve statistics";
    if (!(s.p50Cycles <= s.p95Cycles && s.p95Cycles <= s.p99Cycles))
        return "latency percentiles out of order";
    if (s.requests != requests)
        return std::to_string(s.requests) + " of " +
               std::to_string(requests) + " requests served";
    if (s.batches == 0 || s.batches > s.requests)
        return std::to_string(s.batches) + " batches for " +
               std::to_string(s.requests) + " requests";
    // Mean occupancy is requests / batches: every request landed in
    // exactly one batch iff it multiplies back to the request count.
    const double batched = s.meanOccupancy * s.batches;
    if (std::llround(batched) != static_cast<long long>(s.requests))
        return "batches hold " + std::to_string(batched) +
               " requests, not " + std::to_string(s.requests);
    return {};
}

std::string
checkShards(const sgcn::RunResult &run, unsigned chips)
{
    const sgcn::ShardStats &s = run.shard;
    if (!s.enabled || s.chipCycles.size() != chips) {
        return std::to_string(s.chipCycles.size()) +
               " chip cycle entries for " + std::to_string(chips) +
               " chips";
    }
    if (s.bottleneckChipCycles !=
        *std::max_element(s.chipCycles.begin(), s.chipCycles.end()))
        return "bottleneck chip is not the slowest chip";
    return {};
}

std::string
checkRepeat(const sgcn::RunResult &first, const sgcn::RunResult &again)
{
    bool same = sameCounts(first.total, again.total) &&
                sameCounts(first.inputLayer, again.inputLayer) &&
                first.sampledLayers.size() == again.sampledLayers.size();
    for (std::size_t i = 0; same && i < first.sampledLayers.size(); ++i)
        same = sameCounts(first.sampledLayers[i], again.sampledLayers[i]);
    same = same && first.serve.p50Cycles == again.serve.p50Cycles &&
           first.serve.p99Cycles == again.serve.p99Cycles &&
           first.shard.chipCycles == again.shard.chipCycles;
    return same ? std::string{}
                : "simulated counts changed between repeats";
}

} // namespace perfbench
