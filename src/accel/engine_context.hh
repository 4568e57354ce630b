/**
 * @file
 * Shared per-layer execution state handed to the dataflow paths.
 *
 * EngineContext bundles everything a dataflow needs to simulate one
 * layer — configuration, layer context, event queue, the HBM model
 * and the global cache in front of it, systolic array,
 * stream-traffic counters — plus the roofline, snapshot and stream
 * helpers both execution modes share. It is the documented interface
 * between the dataflow paths (src/accel/dataflow/) and the timing
 * engines (src/accel/timing/): all members are public, so no
 * component needs friend access into the layer engine. Engines call
 * the memory models directly: feature gathers go through `cache`,
 * topology fetches and stream DMA straight to `dram`, and column
 * product's partial sums through `psumBuffer`.
 */

#ifndef SGCN_ACCEL_ENGINE_CONTEXT_HH
#define SGCN_ACCEL_ENGINE_CONTEXT_HH

#include <memory>
#include <vector>

#include "accel/config.hh"
#include "accel/workload.hh"
#include "engine/systolic.hh"
#include "graph/partition.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"

namespace sgcn
{

/** Reserved stride of a dense row (residual/psum regions). */
inline std::uint64_t
denseRowStride(std::uint32_t width)
{
    return alignUp(static_cast<std::uint64_t>(width) * kFeatureBytes,
                   kCachelineBytes);
}

/** Execution state of one layer; construct fresh per (config, layer). */
struct EngineContext
{
    EngineContext(const AccelConfig &config, const LayerContext &layer);
    ~EngineContext();

    // -- shared helpers --------------------------------------------------

    /** Traffic snapshot used to price a phase via the roofline. */
    struct Snapshot
    {
        std::uint64_t dramLines = 0;
        std::uint64_t cacheAccesses = 0;
        std::uint64_t psumAccesses = 0;
    };

    /** Per-tile phase times for the two-stage pipeline. */
    struct TilePhase
    {
        Cycle aggTime = 0;
        Cycle combTime = 0;
    };

    Snapshot snapshot() const;

    /** Every off-chip line so far: DRAM timing traffic, the global
     *  cache's and the psum banks' functional fills and spills, and
     *  fast-mode stream traffic. */
    TrafficCounters offChipTraffic() const;

    /** Roofline time for a phase given compute cycles and the
     *  traffic delta since @p before. */
    Cycle phaseCycles(Cycle compute, const Snapshot &before) const;

    /** Lines of a dense row of @p width features. */
    std::uint64_t denseRowLines(std::uint32_t width) const;

    /** Count a whole dense region as stream traffic (fast mode). */
    void streamDense(VertexId rows, std::uint32_t width, MemOp op,
                     TrafficClass cls);

    /** Count one plan as stream traffic (fast mode). */
    void streamPlan(const AccessPlan &plan, MemOp op, TrafficClass cls);

    /** Sampled edge count for a (vertex, src-tile) edge range. */
    std::uint32_t sampledEdges(std::uint32_t available) const;

    /** Pin high-degree rows for EnGN's DAVC. */
    void pinDavc(Addr base, std::uint32_t width);

    /** The layer topology's (dst_span x src_span) tile view, shared
     *  across configs via the stream-artifact cache. */
    std::shared_ptr<const TiledGraphView>
    tiledView(VertexId dst_span, VertexId src_span) const;

    /** Offline source-tile span from the static density estimate. */
    VertexId pickSrcSpan(const FeatureLayout &layout) const;

    /** Destination-tile span: the psum buffer bounds the tile, so
     *  narrow sliced passes allow tall tiles and whole-row passes
     *  shrink them (SV-B). @p full_width is the pass width when the
     *  layout does not slice. */
    VertexId pickDstSpan(const FeatureLayout &layout,
                         std::uint32_t full_width) const;

    /** Weight-matrix lines streamed once per layer. */
    std::uint64_t weightLines() const;

    /** Column-product partial-sum strip width: whole output rows
     *  when sliceC is zero, one feature slice otherwise. Shared by
     *  the fast and timing column-product paths so their streams
     *  cannot desynchronize. */
    std::uint32_t psumStripWidth() const;

    /** Component-wise sums of per-tile phase times (the totals the
     *  tile pipeline and the layer schedules are built from). */
    static TilePhase sumTilePhases(const std::vector<TilePhase> &tiles);

    /** Two-stage tile pipeline: agg(t) overlaps comb(t-1). */
    static Cycle pipelineTiles(const std::vector<TilePhase> &tiles);

    /** One past the last row this engine writes output for: the
     *  layer's ownedRows (halo tail rows are read-only sources), or
     *  numVertices() for a hand-built context that leaves it 0. */
    VertexId
    ownedEnd() const
    {
        return layer.ownedRows ? layer.ownedRows
                               : layer.graph->numVertices();
    }

    // -- state -----------------------------------------------------------

    const AccelConfig &cfg;
    const LayerContext &layer;

    /** Event-queue time at which the current layer run began; set by
     *  the layer engine before dispatching to the dataflow. Timing
     *  paths measure every phase relative to this base instead of
     *  capturing events.now() ad hoc at engine construction — the
     *  construction-time capture was only correct while each layer
     *  owned a private queue starting at cycle 0, and silently breaks
     *  the moment layers share a timeline (ROADMAP phase1/DMA
     *  accounting audit). */
    Cycle layerBase = 0;

    EventQueue events;
    Dram dram;
    /** The global cache (Table III) in front of dram. */
    Cache cache;
    SystolicArray systolic;

    /** Column-product partial-sum accumulator banks (AWB-GCN):
     *  distinct from the shared cache, with their own throughput.
     *  Null unless the personality's dataflow is ColumnProduct. */
    std::unique_ptr<Cache> psumBuffer;

    /** Fast-mode streaming traffic bypassing the cache model. */
    TrafficCounters fastStreamTraffic;

    std::uint64_t aggMacs = 0;
    std::uint64_t combMacs = 0;

    /** One (vertex, src-tile) neighbour run of the fast aggregation
     *  sweep, resolved once per source tile and replayed for every
     *  feature slice (see sweepTileFast). */
    struct SweepEntry
    {
        unsigned engine = 0;
        EdgeId edgeBegin = 0;
        std::uint32_t walk = 0;
        std::size_t pickBegin = 0;
        std::size_t pickEnd = 0;
    };

    /** sweepTileFast scratch, reused across tiles and slices so the
     *  warm fast path stays allocation-free. */
    std::vector<SweepEntry> sweepEntries;
    std::vector<VertexId> sweepPicks;
};

} // namespace sgcn

#endif // SGCN_ACCEL_ENGINE_CONTEXT_HH
