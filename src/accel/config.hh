/**
 * @file
 * Accelerator configuration: Table III system parameters plus the
 * dataflow/format/caching knobs that differentiate the compared
 * accelerators (Table I).
 */

#ifndef SGCN_ACCEL_CONFIG_HH
#define SGCN_ACCEL_CONFIG_HH

#include <string>

#include "energy/energy_model.hh"
#include "engine/systolic.hh"
#include "formats/format.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/types.hh"

namespace sgcn
{

/** How a simulation is executed. */
enum class ExecutionMode
{
    /** Event-driven cycle-level simulation (cache + DRAM timing). */
    Timing,
    /** Functional cache simulation + roofline cycle estimate; the
     *  same access streams, orders of magnitude faster. */
    Fast,
};

/**
 * The three dataflow shapes covering the compared personalities
 * (Table I). Each value has a fast and a timing path declared in
 * src/accel/dataflow/dataflow.hh, and LayerEngine::run switches over
 * the kinds with no default: adding a dataflow means one file plus
 * one `case`, and a kind without a case is a -Wswitch warning.
 */
enum class DataflowKind : std::uint8_t
{
    /** Aggregation-first row product (SGCN, GCNAX, HyGCN, EnGN,
     *  I-GCN intermediate layers). */
    AggFirstRowProduct,

    /** Combination-first row product (and every row-product
     *  personality's input layer, where combination-first is
     *  universally better because the width shrinks, SIII-A). */
    CombFirstRowProduct,

    /** Column product (AWB-GCN): reads each input feature once,
     *  pays random partial-sum read-modify-writes. */
    ColumnProduct,
};

/** Human-readable dataflow name. */
constexpr const char *
dataflowKindName(DataflowKind kind)
{
    switch (kind) {
      case DataflowKind::AggFirstRowProduct:
        return "aggregation-first (row product)";
      case DataflowKind::CombFirstRowProduct:
        return "combination-first (row product)";
      case DataflowKind::ColumnProduct:
        return "combination-first (column product)";
    }
    return "invalid";
}

/** Full accelerator configuration. */
struct AccelConfig
{
    std::string name = "SGCN";

    // ------------------------------------------------------------------
    // Dataflow (Table I)
    // ------------------------------------------------------------------

    /** Dataflow executed for intermediate layers. */
    DataflowKind dataflow = DataflowKind::AggFirstRowProduct;

    // ------------------------------------------------------------------
    // Intermediate feature format
    // ------------------------------------------------------------------

    /** Storage format of intermediate features. */
    FormatKind format = FormatKind::Beicsr;

    /** BEICSR unit slice width C (SV-B, default 96). */
    std::uint32_t sliceC = 96;

    // ------------------------------------------------------------------
    // Tiling and locality
    // ------------------------------------------------------------------

    /** 2-D topology tiling with offline working-set sizing (SV-C). */
    bool topologyTiling = true;

    /** Destination vertices per tile (upper cap): GCNAX-style
     *  perfect tiling provisions a generous psum buffer (SVIII-A:
     *  "perfect tiling overprovisions the required amount of
     *  buffer"), so tiles span thousands of rows — the regime
     *  Fig. 7 draws. */
    VertexId dstTileRows = 4096;

    /** Aggregation psum buffer capacity in bytes. The effective
     *  destination tile is aggPsumBudgetBytes / (pass width x 4B):
     *  feature slicing keeps passes narrow and tiles tall, which is
     *  the dataflow benefit of sliced BEICSR (SV-B); whole-row
     *  formats get proportionally shorter tiles. */
    std::uint64_t aggPsumBudgetBytes = 1536 * 1024;

    /** EnGN-style degree-aware vertex cache (pinning). */
    bool davc = false;

    /** Fraction of cache ways the DAVC may pin. */
    double davcCacheFraction = 0.25;

    /** I-GCN-style BFS islandization reordering. */
    bool islandReorder = false;

    /** Sparsity-aware cooperation (SV-C). */
    bool sac = false;

    /** SAC strip height (paper default 32). */
    VertexId sacStripHeight = 32;

    // ------------------------------------------------------------------
    // Engines (Table III)
    // ------------------------------------------------------------------

    /** Aggregation engines. */
    unsigned aggEngines = 8;

    /** Combination engines. */
    unsigned combEngines = 8;

    /** SIMD MAC lanes per aggregation engine. */
    unsigned simdLanes = 16;

    /** Combination systolic array geometry. */
    SystolicConfig systolic;

    /** Outstanding work items per aggregation engine. */
    unsigned outstandingPerEngine = 16;

    /** Shared-cache throughput, lines per cycle (multi-banked). */
    unsigned cacheLinesPerCycle = 8;

    /** Column-product partial-sum accumulator capacity (KB): the
     *  distributed on-chip banks of AWB-GCN. Spills go to DRAM. */
    std::uint64_t psumBufferKb = 512;

    /** Psum bank throughput, lines per cycle (wide, distributed). */
    unsigned psumLinesPerCycle = 16;

    // ------------------------------------------------------------------
    // Memory system (Table III)
    // ------------------------------------------------------------------

    CacheConfig cache;
    DramConfig dram = DramConfig::hbm2();

    // ------------------------------------------------------------------
    // Special-casing
    // ------------------------------------------------------------------

    /** Perform the first layer's combination on the sparse
     *  aggregator when X^1 is ultra-sparse (SVII-B). */
    bool firstLayerSparseInput = false;

    /** Zero-skipping combination datapath (AWB-GCN). */
    bool zeroSkipCombination = false;

    // ------------------------------------------------------------------
    // Energy / area descriptor
    // ------------------------------------------------------------------

    AccelDescriptor energyDesc;

    /** Render the Table III style configuration block. */
    std::string describe() const;
};

} // namespace sgcn

#endif // SGCN_ACCEL_CONFIG_HH
