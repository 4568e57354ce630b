/**
 * @file
 * Composition of per-chip layer runs onto one shared timeline.
 *
 * A sharded layer runs the same GCN layer on every chip's subgraph
 * concurrently, after an exchange phase delivers the halo features.
 * The composed result is a normal LayerResult — wall clock =
 * exchange + slowest chip, counts summed across chips — whose
 * schedule is the bottleneck chip's schedule shifted by the exchange
 * cycles, with the exchange riding the input-DMA prefix. That keeps
 * criticalEnd() == cycles, so the existing inter-layer pipeline
 * (LayerPipeline::append) chains sharded layers unchanged: the
 * exchange + weight prefetch of layer l+1 is exactly what hides
 * behind layer l's output drain.
 */

#ifndef SGCN_ACCEL_PIPELINE_SHARD_TIMELINE_HH
#define SGCN_ACCEL_PIPELINE_SHARD_TIMELINE_HH

#include <span>

#include "accel/interconnect/exchange.hh"
#include "accel/result.hh"

namespace sgcn
{

/**
 * Compose one layer's per-chip results and its halo exchange: wall
 * clock and summed counts on the bottleneck (first slowest) chip's
 * schedule; see the file comment. bwUtil is left to the caller,
 * which knows the chips' memory stacks.
 *
 * @param chip_layers one LayerResult per chip, same layer
 * @param exchange the priced halo exchange feeding this layer
 */
LayerResult composeChipLayers(std::span<const LayerResult> chip_layers,
                              const ExchangeCost &exchange);

} // namespace sgcn

#endif // SGCN_ACCEL_PIPELINE_SHARD_TIMELINE_HH
