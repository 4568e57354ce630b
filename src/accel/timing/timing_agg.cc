#include "accel/timing/timing_agg.hh"

#include "core/sac.hh"
#include "sim/logging.hh"

namespace sgcn
{

TimingAgg::TimingAgg(EngineContext &engine_ctx,
                     const TiledGraphView &tile_view, unsigned tile,
                     const FeatureLayout &feature_layout,
                     TrafficClass traffic_cls)
    : ec(engine_ctx), view(tile_view), layout(feature_layout),
      cls(traffic_cls)
{
    const VertexId tile_begin = view.dstTileBegin(tile);
    const VertexId tile_end = view.dstTileEnd(tile);
    auto schedule = scheduleEngines(tile_begin, tile_end,
                                    ec.cfg.aggEngines,
                                    ec.cfg.sac
                                        ? EngineScheduleKind::SacStrips
                                        : EngineScheduleKind::Chunked,
                                    ec.cfg.sacStripHeight);
    engines.resize(ec.cfg.aggEngines);
    for (unsigned e = 0; e < ec.cfg.aggEngines; ++e)
        engines[e].order = std::move(schedule[e]);
}

void
TimingAgg::start(std::function<void()> on_done)
{
    done = std::move(on_done);
    for (unsigned e = 0; e < engines.size(); ++e)
        tryIssue(e);
    checkDone();
}

bool
TimingAgg::nextItem(EngineState &es, Item &item)
{
    // Iteration order matches the fast mode: source tile outermost
    // (edge buffer replay), then slice, then the engine's vertex
    // order.
    const unsigned slices = layout.numSlices();
    while (true) {
        if (es.exhausted)
            return false;
        if (!es.vertexLoaded) {
            if (es.vi >= es.order.size()) {
                es.vi = 0;
                if (++es.slice >= slices) {
                    es.slice = 0;
                    if (++es.srcTile >= view.numSrcTiles()) {
                        es.exhausted = true;
                        return false;
                    }
                }
                continue;
            }
            es.curV = es.order[es.vi];
            es.nbrs = view.tileNeighbors(es.curV, es.srcTile);
            es.walk = ec.sampledEdges(
                static_cast<std::uint32_t>(es.nbrs.size()));
            if (es.walk == 0) {
                ++es.vi;
                continue;
            }
            es.stride = static_cast<double>(es.nbrs.size()) / es.walk;
            es.edge = 0;
            es.vertexLoaded = true;
        }

        const auto pick = static_cast<std::size_t>(
            static_cast<double>(es.edge) * es.stride);
        const VertexId u = es.nbrs[pick];
        item.feat = layout.planSliceRead(u, es.slice);
        item.values = layout.sliceValues(u, es.slice);
        item.topo = AccessPlan{};
        if (es.edge == 0 && es.slice == 0) {
            // Topology fetched once per (v, c); later slices replay
            // the edge buffer (Fig. 5).
            item.topo.addBytes(
                AddressMap::kTopologyBase +
                    view.edgeBegin(es.curV, es.srcTile) *
                        ec.layer.edgeBytes,
                static_cast<std::uint64_t>(es.walk) *
                    ec.layer.edgeBytes);
        }
        if (++es.edge == es.walk) {
            es.vertexLoaded = false;
            ++es.vi;
        }
        return true;
    }
}

void
TimingAgg::tryIssue(unsigned e)
{
    EngineState &es = engines[e];
    while (es.outstanding < ec.cfg.outstandingPerEngine) {
        Item item;
        if (!nextItem(es, item))
            break;
        ++es.outstanding;
        SGCN_ASSERT(item.feat.numRuns > 0 || item.topo.numRuns > 0);
        const std::uint32_t values = item.values;
        MemCallback on_item([this, e, values] { itemDone(e, values); });
        // Topology streams from DRAM, features go through the cache
        // hierarchy; a pooled two-way join replaces the per-line
        // closures when the item carries both.
        if (item.topo.numRuns > 0 && item.feat.numRuns > 0) {
            BurstPool::Node *join = joins.join(2, std::move(on_item));
            ec.dram.accessBurst(item.topo, MemOp::Read,
                                TrafficClass::Topology,
                                BurstPool::part(join));
            ec.cache.accessBurst(item.feat, MemOp::Read, cls,
                                 BurstPool::part(join));
        } else if (item.topo.numRuns > 0) {
            ec.dram.accessBurst(item.topo, MemOp::Read,
                                TrafficClass::Topology,
                                std::move(on_item));
        } else {
            ec.cache.accessBurst(item.feat, MemOp::Read, cls,
                                 std::move(on_item));
        }
    }
}

void
TimingAgg::itemDone(unsigned e, std::uint32_t values)
{
    EngineState &es = engines[e];
    const Cycle now = ec.events.now();
    es.computeFreeAt =
        std::max(now, es.computeFreeAt) +
        std::max<Cycle>(1, divCeil(values, ec.cfg.simdLanes));
    ec.aggMacs += values;
    ec.events.schedule(es.computeFreeAt, [this, e] {
        --engines[e].outstanding;
        tryIssue(e);
        checkDone();
    });
}

void
TimingAgg::checkDone()
{
    if (signalled || !done)
        return;
    for (const auto &es : engines) {
        if (!es.exhausted || es.outstanding != 0)
            return;
    }
    signalled = true;
    done();
}

} // namespace sgcn
