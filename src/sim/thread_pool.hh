/**
 * @file
 * One process-wide, work-helping pool behind every parallel fan-out
 * (sweeps over personalities, the layers of one network, the chips
 * of a sharded layer, served batches, graph preprocessing).
 *
 * parallelFor() posts its indices as a batch with an atomic claim
 * cursor. The calling thread claims indices itself; pool workers
 * join until the batch has @p jobs participants. Once the cursor is
 * exhausted the caller helps other open batches at its own nesting
 * depth or deeper until its batch finishes, so nested fan-outs (a
 * sweep cell fanning out its layers) spawn no threads and never wait
 * on a straggler while work is left. Free workers join the shallowest
 * open batch first, so outer work (a new sweep cell, a new served
 * batch) goes before the layers of cells already running. Workers
 * are created lazily, up to the largest @p jobs ever requested minus
 * the caller, and live for the rest of the process.
 *
 * Because a waiting caller runs other indices on top of its own
 * stack, an index must not block on work that only a paused frame
 * below it could finish — e.g. a KeyedCache entry whose computation
 * itself fans out and can be looked up from a sibling index.
 *
 * Results stay deterministic: callers write per-index slots and
 * merge in index order on their own thread, and a failing fan-out
 * rethrows the lowest-index exception, as the serial loop would.
 */

#ifndef SGCN_SIM_THREAD_POOL_HH
#define SGCN_SIM_THREAD_POOL_HH

#include <cstddef>
#include <functional>

#include "sim/error.hh"

namespace sgcn
{

/** std::thread::hardware_concurrency with a fallback of 1. */
unsigned hardwareJobs();

/** A `jobs` knob value resolved to a thread count: 0 means "all
 *  hardware threads". */
unsigned resolveJobs(unsigned jobs);

/**
 * Run fn(0), ..., fn(count - 1) with at most @p jobs of them in
 * flight at once; inline on the caller thread when either is 1 (or
 * @p jobs resolves to 1). Blocks until every index ran. Safe to
 * nest: an inner call from inside @p fn shares the same workers.
 * Exceptions are collected and the lowest-index one is rethrown, so
 * failures are as deterministic as the serial loop's.
 */
void parallelFor(unsigned jobs, std::size_t count,
                 const std::function<void(std::size_t)> &fn);

/**
 * parallelFor over fallible tasks: run every fn(i) and return the
 * error of the lowest failing index (success when none failed), so
 * the reported error is the serial loop's at any @p jobs value.
 */
Status parallelTry(unsigned jobs, std::size_t count,
                   const std::function<Status(std::size_t)> &fn);

} // namespace sgcn

#endif // SGCN_SIM_THREAD_POOL_HH
