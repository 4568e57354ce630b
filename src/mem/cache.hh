/**
 * @file
 * Set-associative write-back global cache (Table III: 512 KB,
 * 16-way, LRU) with MSHR-based miss handling and optional way
 * pinning used to model EnGN's degree-aware vertex cache.
 *
 * The cache exposes both a timing interface (requests flow to the
 * DRAM model through the event queue) and a functional interface
 * (tag-array-only, used by the fast estimation mode). Both share the
 * same tag array logic so hit rates agree by construction.
 *
 * Each set keeps a row of 32-bit tags and a separate row of 32-bit
 * use stamps, padded to a whole number of 16-way blocks with
 * sentinel ways and stored 64-byte aligned, so a Table III set's
 * tags fill exactly one host cacheline. Every probe resolves a set
 * with two vector helpers: a hit is one compare of the tag against
 * the whole tag row plus a count-trailing-zeros of the match mask,
 * and an LRU/FIFO victim is the first way holding the row's minimum
 * stamp (vector min, broadcast compare, count-trailing-zeros). One
 * code path serves every associativity.
 */

#ifndef SGCN_MEM_CACHE_HH
#define SGCN_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mem/access_plan.hh"
#include "mem/burst.hh"
#include "mem/dram.hh"
#include "mem/mem_request.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace sgcn
{

/** Replacement policy of the global cache (Table III: LRU). */
enum class ReplacementPolicy
{
    Lru,
    Fifo,
    Random,
    /** Static re-reference interval prediction (SRRIP-2): lines
     *  insert at distant RRPV and must be re-referenced to stay,
     *  resisting the streaming thrash SV-C describes. */
    Srrip,
};

/** Human-readable replacement policy name. */
constexpr const char *
replacementPolicyName(ReplacementPolicy policy)
{
    switch (policy) {
      case ReplacementPolicy::Lru: return "LRU";
      case ReplacementPolicy::Fifo: return "FIFO";
      case ReplacementPolicy::Random: return "Random";
      case ReplacementPolicy::Srrip: return "SRRIP";
      default: return "invalid";
    }
}

/** Cache geometry and timing configuration. */
struct CacheConfig
{
    /** Total capacity in bytes (Table III: 512 KB). */
    std::uint64_t sizeBytes = 512 * 1024;

    /** Associativity (Table III: 16). */
    unsigned ways = 16;

    /** Hit latency in cycles. */
    Cycle hitLatency = 2;

    /** Miss status holding registers (outstanding misses). */
    unsigned mshrs = 256;

    /** Replacement policy (Table III: LRU). */
    ReplacementPolicy replacement = ReplacementPolicy::Lru;

    /**
     * Use-stamp tick at which the LRU/FIFO stamps are renormalized
     * (dense-ranked, order-preserving) so they keep fitting their
     * 32-bit slots. The default fires once per ~4G accesses; tests
     * lower it to exercise the renormalization deterministically.
     */
    std::uint32_t useStampRenormThreshold = 0xffff'fff0u;

    /** Derived: number of sets. */
    std::uint64_t
    numSets() const
    {
        return sizeBytes / (kCachelineBytes * ways);
    }
};

/** Aggregate cache statistics. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t mshrCoalesced = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

    double
    hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * The shared on-chip global cache in front of DRAM.
 */
class Cache
{
  public:
    Cache(const CacheConfig &config, Dram &dram, EventQueue &queue);
    ~Cache();

    /** lineTag/lineUse view their own rowStorage. */
    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /**
     * Timing access. The completion callback fires after the hit
     * latency on a hit, or after the DRAM fill on a miss. Misses to a
     * line already outstanding coalesce onto the existing MSHR. When
     * all MSHRs are busy the request queues internally; the bounded
     * engine request windows provide global backpressure.
     */
    void access(const MemRequest &request, MemCallback done);

    /**
     * Timing access of every line in @p plan, in order; @p done
     * fires exactly once, when the last line completes (immediately
     * if the plan is empty). Line-for-line equivalent to calling
     * access() per line, with one pooled join counter instead of a
     * heap-allocated closure per line.
     */
    void accessBurst(const AccessPlan &plan, MemOp op,
                     TrafficClass cls, MemCallback done);

    /**
     * Read-modify-write burst: for each line of @p plan, in order,
     * a read then a write (the column-product partial-sum update
     * pattern). @p done fires once, after all 2x completions.
     */
    void accessBurstRmw(const AccessPlan &plan, TrafficClass cls,
                        MemCallback done);

    /**
     * Functional access: updates the tag array and DRAM traffic
     * counters only (no events, no latency). Returns true on hit.
     */
    bool accessFunctional(const MemRequest &request);

    /**
     * Functional access of every line in @p plan, in order —
     * line-for-line equivalent to accessFunctional per line, with
     * the per-call layering hoisted out of the loop. This is the
     * fast sweeps' hot entry point.
     */
    void accessPlanFunctional(const AccessPlan &plan, MemOp op,
                              TrafficClass cls);

    /**
     * Functional access of @p lines consecutive lines starting at
     * @p line_addr — one plan run. Under LRU/FIFO (with or without
     * live pins) each line costs one vector tag match and, on a
     * miss, one vector min-stamp victim pick, installing without a
     * second probe; statistics post per run, not per line.
     * Bit-identical to accessFunctional per line.
     */
    void accessRunFunctional(Addr line_addr, std::uint32_t lines,
                             MemOp op, TrafficClass cls);

    /**
     * Read-modify-write of @p lines consecutive lines starting at
     * @p line_addr (the column-product partial-sum update): per
     * line, a read then a write. Bit-identical to accessFunctional
     * called with the read and then the write for each line; the
     * write always hits and marks the line dirty, so each line is
     * probed once.
     */
    void accessRunRmwFunctional(Addr line_addr, std::uint32_t lines,
                                TrafficClass cls);

    /**
     * Pin the line at @p line_addr: functionally install it, count
     * the fill as @p cls read traffic, and exempt it from eviction.
     * Used to model EnGN's degree-aware vertex cache. Returns false
     * if the target set is already fully pinned.
     */
    bool pin(Addr line_addr, TrafficClass cls);

    /** Whether @p line_addr is resident. No side effects: neither
     *  the replacement state nor the statistics change. */
    bool holds(Addr line_addr) const;

    /** Unpin every line (e.g. between layers). */
    void unpinAll();

    /** Drop all cached lines (dirty lines write back functionally). */
    void flush();

    /**
     * Hint that @p line_addr will be probed shortly: prefetch the
     * first block of its set's tag and stamp rows (a whole Table III
     * set). The fast sweeps know the next access a few dozen cycles
     * ahead, enough to hide the L2 latency of the tag array's
     * random-set walk. No architectural effect.
     */
    void
    prefetchSet(Addr line_addr) const
    {
        const std::size_t base = setBase(line_addr);
        __builtin_prefetch(lineTag.data() + base);
        __builtin_prefetch(lineUse.data() + base);
    }

    /** Cache statistics. */
    const CacheStats &stats() const { return statCounters; }

    /** DRAM-side traffic generated by functional accesses. */
    const TrafficCounters &functionalDramTraffic() const
    {
        return functionalTraffic;
    }

    /** Outstanding timing misses (allocated MSHRs). */
    std::size_t outstandingMisses() const { return mshrCount; }

    /** The active configuration. */
    const CacheConfig &config() const { return cfg; }

    /** Reset statistics (not cache contents). */
    void resetStats();

    /** Ways per vector block: sixteen 32-bit lanes, one 64-byte
     *  host cacheline. Sets are padded to a whole number of blocks. */
    static constexpr unsigned kBlockWays = 16;

  private:
    /** Sentinel tag for an invalid line and for the padding ways.
     *  Tags are 32-bit: the modeled address space ends below 4 GB
     *  (AddressMap), so real tags stay far under the sentinel
     *  (asserted on every probe) and never match it. */
    static constexpr std::uint32_t kInvalidTag = ~0u;

    /** Use stamp of a padding way: above every real stamp (the
     *  renormalization threshold is asserted below it), so a padding
     *  way is never the minimum. Pinned ways take it too while the
     *  pinned victim pick runs. */
    static constexpr std::uint32_t kNeverVictim = ~0u;

    /** findWay/oldestWay result when no way qualifies. */
    static constexpr unsigned kNoWay = ~0u;

    /** Alignment of every set row: one host cacheline. */
    static constexpr std::size_t kRowAlign = 64;

    /** Bits of the per-line metadata byte: dirty/pinned flags plus
     *  the SRRIP re-reference prediction value (0 = imminent). */
    static constexpr std::uint8_t kLineDirty = 1;
    static constexpr std::uint8_t kLinePinned = 2;
    static constexpr unsigned kRrpvShift = 2;
    static constexpr std::uint8_t kRrpvMask = 3 << kRrpvShift;

    static constexpr std::size_t kNoLine = ~std::size_t{0};

    /** Overflow storage for deeply-coalesced MSHR targets: fixed
     *  blocks chained off the entry, recycled through a free list so
     *  the steady state never touches the heap. */
    struct MshrTargetNode
    {
        static constexpr unsigned kTargets = 4;

        BurstPool::Node *targets[kTargets];
        std::uint8_t used = 0;
        MshrTargetNode *next = nullptr;
    };

    /**
     * One outstanding miss in the open-addressing MSHR table
     * (linear probing, backward-shift deletion). The common
     * coalescing degree stores its completion targets (burst nodes)
     * inline; deeper chains spill into free-listed MshrTargetNodes.
     * This replaces the per-miss std::unordered_map node + targets
     * vector — the last per-plan allocations on the timing hot
     * path (micro_event_queue's counting allocator pins the bound).
     */
    struct MshrEntry
    {
        static constexpr unsigned kInlineTargets = 2;

        Addr addr = 0;
        bool occupied = false;
        bool anyWrite = false;
        TrafficClass cls = TrafficClass::FeatureIn;
        std::uint8_t inlineUsed = 0;
        BurstPool::Node *inlineTargets[kInlineTargets];
        MshrTargetNode *overflowHead = nullptr;
        MshrTargetNode *overflowTail = nullptr;
    };

    std::uint64_t setIndex(Addr line_addr) const;

    /** Flat index of the first way of @p line_addr's set. */
    std::size_t
    setBase(Addr line_addr) const
    {
        return static_cast<std::size_t>(
                   (line_addr / kCachelineBytes) & setMask) *
               rowWays;
    }

    /** The 32-bit tag of @p line_addr (asserted below kInvalidTag). */
    std::uint32_t tagOf(Addr line_addr) const;

    /** First way of the set at @p base whose tag is @p tag, or
     *  kNoWay: one vector compare per block, then the lowest set bit
     *  of the match mask. */
    unsigned findWay(std::size_t base, std::uint32_t tag) const;

    /** First way of the set at @p base holding the minimum use
     *  stamp (invalid ways stamp 0, so they win first). With
     *  @p pins, pinned ways rank as kNeverVictim, and a set with no
     *  unpinned way returns kNoWay. */
    unsigned oldestWay(std::size_t base, bool pins) const;

    /** Probe for @p line_addr; updates LRU on hit. Returns the hit
     *  line's flat index, or kNoLine on miss. */
    std::size_t probe(Addr line_addr);

    /**
     * Choose a victim in the set of @p line_addr, write it back if
     * dirty (via @p timing DRAM or functional counters), and install
     * the new tag. Returns the installed line's flat index.
     */
    std::size_t fill(Addr line_addr, bool timing, TrafficClass cls);

    /**
     * Evict (accounting for a dirty writeback) and overwrite the
     * line at flat index @p victim with @p line_addr — fill() minus
     * the victim scan, shared with the fused functional run path.
     */
    void installAt(std::size_t victim, Addr line_addr, bool timing,
                   TrafficClass cls);

    /** The functional paths (accessFunctional, accessRunFunctional,
     *  accessRunRmwFunctional): every line is accessed as @p write;
     *  @p rmw adds the write-after-read hit per line. */
    void runFunctional(Addr line_addr, std::uint32_t lines, bool write,
                       bool rmw, TrafficClass cls);

    /** Timing access of one line whose completion signals @p node
     *  (null: nothing to signal); the body of access() and of the
     *  bursts' per-line loops. */
    void accessLine(const MemRequest &request, BurstPool::Node *node);

    /** Signal @p node after the hit latency. */
    void completeAfterHit(BurstPool::Node *node);

    /** Start servicing a miss: allocate MSHR and fetch from DRAM. */
    void startMiss(const MemRequest &request, BurstPool::Node *node);

    /** DRAM fill returned; complete all coalesced targets. */
    void finishMiss(Addr line_addr);

    /** Home slot of @p line_addr in the MSHR table. */
    std::size_t mshrHome(Addr line_addr) const;

    /** The occupied entry for @p line_addr, or null. */
    MshrEntry *mshrFind(Addr line_addr);

    /** Claim a free slot for @p line_addr (caller checks capacity). */
    MshrEntry &mshrAllocate(Addr line_addr);

    /** Vacate slot @p index, backward-shifting displaced entries. */
    void mshrErase(std::size_t index);

    /** Append @p node to an entry's target list (inline or spill). */
    void mshrPushTarget(MshrEntry &entry, BurstPool::Node *node);

    /** Schedule every target of @p entry and recycle its spill
     *  nodes; leaves the entry target-empty. */
    void mshrDispatchTargets(MshrEntry &entry);

    /** Admit queued requests into freed MSHRs. */
    void drainPendingQueue();

    /** Pick the replacement victim among the real ways of the set
     *  whose first line sits at flat index @p base: an invalid way
     *  first, else the policy's pick among unpinned ways. Returns
     *  kNoLine when every candidate is pinned. */
    std::size_t selectVictim(std::size_t base);

    /** Next LRU/FIFO stamp; renormalizes first when the counter
     *  reaches the configured threshold so stamps stay 32-bit. */
    std::uint32_t nextUseStamp();

    /** Dense-rank every real way's use stamp, preserving order
     *  (policies only ever compare stamps) and keeping 0 reserved
     *  for invalid lines and kNeverVictim for padding, then restart
     *  the counter above the largest rank. */
    void renormalizeUseStamps();

    CacheConfig cfg;
    Dram &dram;
    EventQueue &events;
    BurstPool bursts;
    /** numSets() is a power of two: index with a mask, not a div. */
    std::uint64_t setMask = 0;
    unsigned setShift = 0;
    std::uint64_t victimSeed = 0x5eed;
    /** Ways per set row: cfg.ways rounded up to whole kBlockWays
     *  blocks. Ways cfg.ways..rowWays-1 are padding sentinels. */
    unsigned rowWays = 0;
    /**
     * Tag of each line, one flat slot per way at index
     * set * rowWays + way, so a set's tag row is contiguous and
     * 64-byte aligned: a 16-way set is one host cacheline, matched
     * against a probe's tag in one vector compare (the fast-mode hot
     * path, hundreds of millions of probes per sweep). Invalid ways
     * and padding ways hold kInvalidTag.
     */
    std::span<std::uint32_t> lineTag;
    /**
     * LRU/FIFO use stamp of each line, indexed like lineTag, so the
     * victim pick is a vector min over one aligned row. Validity is
     * folded in as stamp 0 on invalid ways, strictly below every
     * valid line's stamp (the counter starts at 1 and
     * renormalization keeps 0 reserved; see
     * CacheConfig::useStampRenormThreshold); padding ways hold
     * kNeverVictim, strictly above.
     */
    std::span<std::uint32_t> lineUse;
    /** Backing store of lineTag and lineUse: one plain allocation
     *  with a block of slack, so both rows start on a host
     *  cacheline. (An aligned operator new per row measured 4 MB
     *  more peak RSS over a sweep's many short-lived caches.) */
    std::vector<std::uint32_t> rowStorage;
    /** Per-line dirty/pinned flags and SRRIP RRPV (see the kLine*
     *  constants), indexed like lineTag; padding ways stay 0. */
    std::vector<std::uint8_t> lineMeta;
    /** Lines currently pinned, so the common unpinned case skips
     *  per-way pinned checks and unpinAll is O(1). */
    std::uint64_t pinnedLines = 0;
    /** Duplicate-access memo of the functional paths: the last line
     *  they touched is resident and MRU, so an immediate re-access
     *  (the read-modify-write psum pattern) needs no tag match. Any fill,
     *  probe hit (which promotes another line past it) or flush
     *  invalidates it. */
    Addr lastFunctionalAddr = ~Addr{0};
    std::size_t lastFunctionalIndex = 0;
    /** Open-addressing MSHR table: power-of-two sized at twice the
     *  MSHR capacity, so the load factor stays at or below 1/2 and
     *  linear probes stay short. */
    std::vector<MshrEntry> mshrSlots;
    std::uint64_t mshrSlotMask = 0;
    std::size_t mshrCount = 0;
    MshrTargetNode *mshrTargetFree = nullptr;
    /** MSHR-full overflow, FIFO. A head-indexed vector instead of a
     *  deque: the deque's chunk churn was one allocation per few
     *  queued requests in steady state, the vector's retained
     *  capacity is none. The queue need not ever drain (a timing run
     *  keeps thousands of lines queued while issuing millions), so
     *  the consumed prefix is dropped once the head passes half the
     *  vector, keeping it within twice its live length. */
    std::vector<std::pair<MemRequest, BurstPool::Node *>> pendingQueue;
    std::size_t pendingHead = 0;
    CacheStats statCounters;
    TrafficCounters functionalTraffic;
    std::uint64_t useCounter = 0;
};

} // namespace sgcn

#endif // SGCN_MEM_CACHE_HH
