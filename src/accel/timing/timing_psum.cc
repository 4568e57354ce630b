#include "accel/timing/timing_psum.hh"

#include "sim/logging.hh"

namespace sgcn
{

TimingPsum::TimingPsum(EngineContext &engine_ctx) : ec(engine_ctx)
{
    SGCN_ASSERT(ec.psumBuffer,
                "column-product timing requires accumulator banks");
    engines.resize(ec.cfg.aggEngines);
    psumStride = denseRowStride(ec.layer.outWidth);
    stripWidth = ec.psumStripWidth();
    strips =
        static_cast<unsigned>(divCeil(ec.layer.outWidth, stripWidth));
}

void
TimingPsum::start(std::function<void()> on_done)
{
    done = std::move(on_done);
    for (unsigned e = 0; e < engines.size(); ++e)
        tryIssue(e);
    checkDone();
}

bool
TimingPsum::nextEdge(VertexId &dst, AccessPlan &topo)
{
    const CsrGraph &graph = *ec.layer.graph;
    while (true) {
        if (strip >= strips)
            return false;
        if (u >= graph.numVertices()) {
            u = 0;
            ++strip;
            continue;
        }
        if (!vertexLoaded) {
            nbrs = graph.neighbors(u);
            walk = ec.sampledEdges(
                static_cast<std::uint32_t>(nbrs.size()));
            if (walk == 0) {
                ++u;
                continue;
            }
            stride = static_cast<double>(nbrs.size()) / walk;
            edge = 0;
            vertexLoaded = true;
        }
        const auto pick = static_cast<std::size_t>(
            static_cast<double>(edge) * stride);
        dst = nbrs[pick];
        topo = AccessPlan{};
        if (edge == 0) {
            topo.addBytes(AddressMap::kTopologyBase +
                              graph.rowPointers()[u] *
                                  ec.layer.edgeBytes,
                          static_cast<std::uint64_t>(walk) *
                              ec.layer.edgeBytes);
        }
        if (++edge == walk) {
            vertexLoaded = false;
            ++u;
        }
        return true;
    }
}

void
TimingPsum::tryIssue(unsigned e)
{
    EngineState &es = engines[e];
    while (es.outstanding < ec.cfg.outstandingPerEngine) {
        VertexId dst;
        AccessPlan topo;
        if (!nextEdge(dst, topo)) {
            exhausted = true;
            break;
        }
        // The cursor leaves `strip` at the strip this edge belongs
        // to.
        const std::uint32_t begin_col = strip * stripWidth;
        const std::uint32_t end_col =
            std::min(begin_col + stripWidth, ec.layer.outWidth);
        AccessPlan strip_plan;
        strip_plan.addBytes(
            AddressMap::kPsumBase + static_cast<Addr>(dst) * psumStride +
                static_cast<Addr>(begin_col) * kFeatureBytes,
            static_cast<std::uint64_t>(end_col - begin_col) *
                kFeatureBytes);

        ++es.outstanding;
        const std::uint32_t values = end_col - begin_col;
        MemCallback on_item([this, e, values] { itemDone(e, values); });
        // The strip is always non-empty; the topology plan exists
        // only on a vertex's first sampled edge. Topology streams
        // from DRAM first, then the strip read-modify-writes the
        // accumulator banks, exactly as the per-line path issued.
        if (topo.numRuns > 0) {
            BurstPool::Node *join = joins.join(2, std::move(on_item));
            ec.dram.accessBurst(topo, MemOp::Read,
                                TrafficClass::Topology,
                                BurstPool::part(join));
            ec.psumBuffer->accessBurstRmw(strip_plan,
                                          TrafficClass::PartialSum,
                                          BurstPool::part(join));
        } else {
            ec.psumBuffer->accessBurstRmw(strip_plan,
                                          TrafficClass::PartialSum,
                                          std::move(on_item));
        }
    }
}

void
TimingPsum::itemDone(unsigned e, std::uint32_t values)
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
TimingPsum::checkDone()
{
    if (signalled || !done || !exhausted)
        return;
    for (const auto &es : engines) {
        if (es.outstanding != 0)
            return;
    }
    signalled = true;
    done();
}

} // namespace sgcn
