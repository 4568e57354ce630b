/**
 * @file
 * HBM-like DRAM timing model.
 *
 * Models what the SGCN evaluation needs from DRAMsim3's HBM2 backend
 * (Table III): multiple independent channels with private data buses,
 * banks with open-row state, FR-FCFS-lite scheduling, and 64B access
 * granularity. The paper's design goals (§IV) hinge on cacheline- and
 * burst-aligned accesses hitting open rows; this model rewards
 * exactly that.
 */

#ifndef SGCN_MEM_DRAM_HH
#define SGCN_MEM_DRAM_HH

#include <algorithm>
#include <cstdint>
#include <array>
#include <type_traits>
#include <vector>

#include "mem/access_plan.hh"
#include "mem/burst.hh"
#include "mem/mem_request.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace sgcn
{

/** DRAM generation; consumed by the energy model (per-line pJ). */
enum class DramGeneration : std::uint8_t
{
    Hbm2,
    Hbm1,
};

/** DRAM configuration; presets for HBM1 and HBM2 below. */
struct DramConfig
{
    /** Human-readable module name (display only — behaviour keys on
     *  the explicit fields, never on this string). */
    const char *name = "HBM2";

    /** Generation of the part (energy model per-line cost). */
    DramGeneration generation = DramGeneration::Hbm2;

    /** Independent channels (Table III: 8). */
    unsigned channels = 8;

    /** Banks per channel (Table III: 4x4). */
    unsigned banksPerChannel = 16;

    /** Row (page) size per bank in bytes. */
    unsigned rowBytes = 1024;

    /** Channel interleaving granularity in bytes. */
    unsigned interleaveBytes = 256;

    /** Cycles the channel data bus is busy per 64B burst.
     *  HBM2: 32 GB/s per channel at 1 GHz -> 2 cycles / 64B. */
    Cycle burstCycles = 2;

    /** Activate-to-read delay (tRCD). */
    Cycle tRcd = 14;

    /** Precharge delay (tRP). */
    Cycle tRp = 14;

    /** Column access latency (tCL). */
    Cycle tCl = 14;

    /** Four-activate window (tFAW): at most four activates per
     *  channel within this many cycles; bounds random-access
     *  throughput the way real HBM does. */
    Cycle tFaw = 16;

    /** FR-FCFS scan window; 1 degenerates to FCFS. */
    unsigned schedWindow = 16;

    /**
     * Fault injection: probability a burst suffers a transient error
     * and re-rides the queue (the failed attempt still occupies the
     * bus and bank). 0 — the default and every preset — disables the
     * path entirely. Traffic counters book at enqueue, so retries
     * change cycles and bus occupancy but never the traffic counts.
     */
    double transientRetryProb = 0.0;

    /** Retry attempts per request before it is forced through. */
    unsigned maxTransientRetries = 3;

    /** Seed of the per-device retry hash (pure counter hash; each
     *  chip's Dram is private to its event sim, so the sequence is
     *  deterministic at any --jobs). */
    std::uint64_t retrySeed = 0;

    /** Derived: peak bandwidth in bytes/cycle (= bytes/ns at 1GHz). */
    double
    peakBytesPerCycle() const
    {
        return static_cast<double>(channels) * kCachelineBytes /
               static_cast<double>(burstCycles);
    }

    /** Bus-time share @p lines bursts take over @p cycles (capped
     *  at 1) across @p stacks private memory stacks. */
    double
    bandwidthUtil(std::uint64_t lines, Cycle cycles,
                  unsigned stacks = 1) const
    {
        if (cycles == 0)
            return 0.0;
        return std::min(1.0, static_cast<double>(lines) * burstCycles /
                                 (static_cast<double>(stacks) *
                                  static_cast<double>(channels) *
                                  static_cast<double>(cycles)));
    }

    /** HBM2 preset: 256 GB/s peak (Table III). */
    static DramConfig hbm2();

    /** HBM1 preset: 128 GB/s peak (Fig. 18). */
    static DramConfig hbm1();
};

/**
 * Event-driven DRAM device.
 *
 * Requests are enqueued per channel; each channel runs an FR-FCFS
 * scheduler over a bounded scan window and models bank row-buffer
 * state plus data-bus occupancy. Completion callbacks fire when the
 * burst finishes.
 */
class Dram
{
  public:
    Dram(const DramConfig &config, EventQueue &queue);

    /** Enqueue a timing request; @p done fires at completion. */
    void access(const MemRequest &request, MemCallback done);

    /** Enqueue a timing request whose completion signals @p node
     *  (null: nothing to signal). The memory-path form of access(),
     *  used by the cache for fills and writebacks. */
    void accessLine(const MemRequest &request, BurstPool::Node *node);

    /**
     * Enqueue every line of @p plan in order; @p done fires exactly
     * once, when the last line's burst finishes (immediately, if the
     * plan is empty). Request-for-request equivalent to calling
     * access() per line — same queue order, counters, and timing —
     * but decodes once per channel-interleave chunk (consecutive
     * lines that land in the same row), books traffic per run, and
     * joins completions through a pooled counter instead of a
     * per-line heap closure.
     */
    void accessBurst(const AccessPlan &plan, MemOp op,
                     TrafficClass cls, MemCallback done);

    /**
     * Enqueue @p lines consecutive cachelines from @p first_line;
     * @p each fires once per completed line (`lines` times total,
     * stored once). The windowed-stream analogue of accessBurst for
     * issuers that re-issue on every line completion (StreamDma).
     */
    void accessRun(Addr first_line, std::uint32_t lines, MemOp op,
                   TrafficClass cls, MemCallback each);

    /** Total requests still queued or in flight. */
    std::uint64_t inFlight() const { return outstanding; }

    /** Off-chip traffic counters (what Fig. 14 reports). */
    const TrafficCounters &traffic() const { return counters; }

    /** Row-buffer hit count. */
    std::uint64_t rowHits() const { return rowHitCount; }

    /** Row-buffer miss count. */
    std::uint64_t rowMisses() const { return rowMissCount; }

    /** Aggregate data-bus busy cycles across channels. */
    Cycle busBusyCycles() const { return busBusy; }

    /** Transient-error retries taken (fault injection; 0 unless
     *  DramConfig::transientRetryProb > 0). */
    std::uint64_t transientRetries() const { return retryCount; }

    /**
     * Achieved bandwidth utilization over an execution window:
     * busy-cycles / (channels * window).
     */
    double bandwidthUtilization(Cycle window) const;

    /** The active configuration. */
    const DramConfig &config() const { return cfg; }

    /** Reset statistics (not bank state). */
    void resetStats();

  private:
    /** A queued line: plain data, so the scheduler's mid-queue
     *  erase and the retry re-queue are memmoves. */
    struct Pending
    {
        MemRequest request;
        /** Signalled when the burst completes (null: nothing). */
        BurstPool::Node *node;
        /** Decoded at enqueue so the FR-FCFS scan (which revisits
         *  every queued request many times) never re-divides. */
        std::uint64_t row;
        unsigned bank;

        /** Transient-error retries already taken (fault injection). */
        unsigned attempts = 0;
    };
    static_assert(std::is_trivially_copyable_v<Pending>);

    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        Cycle readyAt = 0;
    };

    struct Channel
    {
        /** FR-FCFS scheduling queue in arrival order. A vector, not
         *  a deque: a deque's push/erase churn allocates and frees
         *  a storage chunk every few requests in steady state,
         *  while a vector's retained capacity makes the enqueue
         *  path allocation-free once warm (the mid-queue erase is
         *  the same element shifting either way at these bounded
         *  window depths). */
        std::vector<Pending> queue;
        std::vector<Bank> banks;
        Cycle busFreeAt = 0;
        bool schedulerActive = false;
        /** Ring of the last four activate times (tFAW). */
        std::array<Cycle, 4> recentActivates{};
        unsigned activateCursor = 0;
        std::uint64_t activateCount = 0;
    };

    /** Earliest cycle a new activate may issue on @p channel. */
    Cycle fawReadyAt(const Channel &channel) const;

    /** Record an activate for the tFAW window. */
    void recordActivate(Channel &channel, Cycle when);

    /** Decompose an address into channel / bank / row. */
    void decode(Addr line_addr, unsigned &channel, unsigned &bank,
                std::uint64_t &row) const;

    /** Enqueue one run of lines, each signalling @p node (shared
     *  burst/fanout state) on completion. */
    void enqueueRun(Addr first_line, std::uint32_t lines, MemOp op,
                    TrafficClass cls, BurstPool::Node *node);

    /** Kick the per-channel scheduler if it is idle. */
    void activateScheduler(unsigned channel_idx);

    /** Dispatch the best request from a channel queue. */
    void dispatch(unsigned channel_idx);

    /** Issue queue entry @p pick: bank timing + data-bus booking. */
    void issueRequest(Channel &channel, std::size_t pick);

    DramConfig cfg;
    EventQueue &events;
    BurstPool bursts;
    std::vector<Channel> channelState;
    TrafficCounters counters;
    std::uint64_t outstanding = 0;
    std::uint64_t rowHitCount = 0;
    std::uint64_t rowMissCount = 0;
    Cycle busBusy = 0;
    std::uint64_t retryCount = 0;
    /** Monotone issue sequence feeding the retry hash. */
    std::uint64_t retrySeq = 0;
};

} // namespace sgcn

#endif // SGCN_MEM_DRAM_HH
