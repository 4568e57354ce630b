/**
 * @file
 * The dataflow shapes of Table I, one fast (functional cache +
 * roofline) and one timing (event-driven engines) path each.
 * LayerEngine::run picks one with a closed DataflowKind x mode
 * switch; adding a dataflow is one file plus one `case` there.
 *
 * Every path simulates one layer on the substrate held by @p ec and
 * accumulates into @p result. Besides the merged totals it must fill
 * result.schedule with the layer's phase timeline (layer-local,
 * cycle 0 = the layer start; timing paths measure against
 * ec.layerBase) such that schedule.criticalEnd() equals
 * result.cycles, and install the per-tile spans — the network
 * pipeline chains these schedules across layers. LayerEngine
 * finalizes weight traffic, prepends the weight stream as the
 * schedule's input-DMA prefix, and computes the mode-independent
 * statistics afterwards.
 */

#ifndef SGCN_ACCEL_DATAFLOW_DATAFLOW_HH
#define SGCN_ACCEL_DATAFLOW_DATAFLOW_HH

#include "accel/result.hh"

namespace sgcn
{

struct EngineContext;

/** Aggregation-first row product (agg_first.cc; SGCN, GCNAX, HyGCN,
 *  EnGN, I-GCN intermediate layers): sweep A.X^l per destination
 *  tile, then feed the tile into the combination systolic arrays,
 *  with the two phases pipelined at block granularity. */
void aggFirstFast(EngineContext &ec, LayerResult &result);
void aggFirstTiming(EngineContext &ec, LayerResult &result);

/** Combination-first row product (comb_first.cc): X^l . W^l as one
 *  streaming GEMM pass into the psum region, then the aggregation
 *  sweep over the dense X.W matrix and the output pass. Also every
 *  row-product personality's input layer (SIII-A). */
void combFirstFast(EngineContext &ec, LayerResult &result);
void combFirstTiming(EngineContext &ec, LayerResult &result);

/** Column product (column_product.cc; AWB-GCN): input feature rows
 *  stream in source order with zero-skipping in the datapath; every
 *  out-edge read-modify-writes the destination's partial-sum strip
 *  in the distributed accumulator banks (Fig. 14). */
void columnProductFast(EngineContext &ec, LayerResult &result);
void columnProductTiming(EngineContext &ec, LayerResult &result);

} // namespace sgcn

#endif // SGCN_ACCEL_DATAFLOW_DATAFLOW_HH
