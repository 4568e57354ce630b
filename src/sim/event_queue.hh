/**
 * @file
 * Discrete-event simulation kernel.
 *
 * Components schedule callbacks at absolute cycle times; the queue
 * executes them in (time, insertion-order) order. Insertion order is
 * preserved for same-cycle events so component behaviour is
 * deterministic.
 *
 * Two structural choices keep the hot path allocation- and
 * heap-op-free:
 *
 *  - Callbacks are SmallFunction, not std::function: scheduling an
 *    event with a capture up to kEventCaptureBytes (every callback
 *    of the memory system, every per-item callback of the timing
 *    engines) never touches the heap, and larger captures recycle
 *    fixed-size blocks through a thread-local slab
 *    (sim/small_function.hh). Callbacks live in a
 *    stable slot pool until execution, so ordering structures only
 *    move small PODs.
 *
 *  - Events within kWheelSpan cycles of now (DRAM bursts, cache hit
 *    latencies, scheduler polls — the overwhelming majority) go into
 *    a timing wheel: a ring of per-cycle buckets with a non-empty
 *    bitmap, making schedule and dispatch O(1). Farther events go to
 *    a small binary heap and drain before same-cycle wheel events —
 *    which preserves global FIFO order exactly, because an event can
 *    only have reached the far heap by being scheduled before every
 *    wheel event of the same cycle (the horizon only advances).
 */

#ifndef SGCN_SIM_EVENT_QUEUE_HH
#define SGCN_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/small_function.hh"
#include "sim/types.hh"

namespace sgcn
{

/** Inline capture budget of an event callback. The memory models'
 *  events (cache hit and fill completions, DRAM completions, which
 *  capture `this` plus a burst node, and scheduler polls) and the
 *  engines' per-item compute slots capture at most 16 bytes; only a
 *  per-tile engine callback is larger and spills to the slab. A
 *  MemCallback (48 bytes with its vtable pointer) does not fit next
 *  to `this`, which is why the memory path passes node pointers. */
constexpr std::size_t kEventCaptureBytes = 48;

/** Minimal discrete-event kernel driving all timing simulation. */
class EventQueue
{
  public:
    using Callback = SmallFunction<kEventCaptureBytes>;

    /** Schedule @p cb at absolute time @p when (>= now()). */
    void schedule(Cycle when, Callback cb);

    /** Schedule @p cb @p delta cycles from now. */
    void scheduleAfter(Cycle delta, Callback cb)
    {
        schedule(currentCycle + delta, std::move(cb));
    }

    /** Current simulation time. */
    Cycle now() const { return currentCycle; }

    /** True if no events are pending. */
    bool empty() const { return pendingCount == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return pendingCount; }

    /** Time of the earliest pending event (max Cycle if empty). */
    Cycle nextTime() const;

    /**
     * Run events until the queue drains or @p limit is reached.
     * @return the final simulation time.
     */
    Cycle run(Cycle limit = std::numeric_limits<Cycle>::max());

    /** Execute exactly one event if any is pending. */
    bool step();

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return executedCount; }

  private:
    /** Wheel span in cycles; must be a power of two. Covers every
     *  fixed latency in the memory models with slack. */
    static constexpr std::size_t kWheelSpan = 256;
    static constexpr std::size_t kWheelMask = kWheelSpan - 1;
    static constexpr std::size_t kBitmapWords = kWheelSpan / 64;

    /** An event minus its time: the wheel bucket implies the cycle,
     *  the far heap stores it alongside. */
    struct WheelEvent
    {
        std::uint64_t seq;
        std::uint32_t slot;
    };

    struct FarEvent
    {
        Cycle when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** std::push_heap max-heap comparator inverted to a (when, seq)
     *  min-heap. */
    struct Later
    {
        bool
        operator()(const FarEvent &a, const FarEvent &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::uint32_t acquireSlot(Callback cb);

    /** Earliest non-empty wheel cycle (max Cycle if none). */
    Cycle nearTime() const;

    void markBucket(std::size_t bucket);
    void clearBucket(std::size_t bucket);

    std::array<std::vector<WheelEvent>, kWheelSpan> wheel;
    std::array<std::uint64_t, kBitmapWords> bucketBits{};
    /** Drain cursor into the bucket at currentCycle. */
    std::size_t activePos = 0;

    std::vector<FarEvent> farHeap;

    std::vector<Callback> slots;
    std::vector<std::uint32_t> freeSlots;

    std::size_t pendingCount = 0;
    Cycle currentCycle = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executedCount = 0;
};

} // namespace sgcn

#endif // SGCN_SIM_EVENT_QUEUE_HH
