#include "mem/cache.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace sgcn
{

namespace
{

/** Four 32-bit lanes: the portable vector unit (one SSE2 or NEON
 *  register) of the set probes. */
typedef std::uint32_t Quad __attribute__((vector_size(16)));
/** Four per-way metadata bytes, widened to a Quad for the pin mask. */
typedef std::uint8_t MetaQuad __attribute__((vector_size(4)));

/** One block of Cache::kBlockWays lanes (tags or stamps), as quads. */
struct Block
{
    Quad q0, q1, q2, q3;
};
static_assert(Cache::kBlockWays == 4 * sizeof(Quad) / sizeof(std::uint32_t),
              "a block is four quads");

Quad
loadQuad(const std::uint32_t *row)
{
    Quad quad;
    std::memcpy(&quad, row, sizeof quad);
    return quad;
}

Block
loadBlock(const std::uint32_t *row)
{
    return {loadQuad(row), loadQuad(row + 4), loadQuad(row + 8),
            loadQuad(row + 12)};
}

/** All-ones in the lanes whose metadata byte has @p flag set. */
Quad
flagLanes(const std::uint8_t *meta, std::uint8_t flag)
{
    MetaQuad bytes;
    std::memcpy(&bytes, meta, sizeof bytes);
    return reinterpret_cast<Quad>(
        (__builtin_convertvector(bytes, Quad) & flag) != 0);
}

Quad
minQuad(Quad a, Quad b)
{
    return b < a ? b : a;
}

/** Bit i is set where lane i of @p block equals @p key. */
unsigned
matchMask(const Block &block, std::uint32_t key)
{
    const Quad bits =
        (reinterpret_cast<Quad>(block.q0 == key) & Quad{1, 2, 4, 8}) |
        (reinterpret_cast<Quad>(block.q1 == key) &
         Quad{16, 32, 64, 128}) |
        (reinterpret_cast<Quad>(block.q2 == key) &
         Quad{256, 512, 1024, 2048}) |
        (reinterpret_cast<Quad>(block.q3 == key) &
         Quad{4096, 8192, 16384, 32768});
    const Quad half = bits | __builtin_shufflevector(bits, bits, 2, 3,
                                                     0, 1);
    return half[0] | half[1];
}

} // namespace

Cache::Cache(const CacheConfig &config, Dram &dram_module,
             EventQueue &queue)
    : cfg(config), dram(dram_module), events(queue)
{
    SGCN_ASSERT(cfg.ways > 0 && cfg.sizeBytes > 0);
    const std::uint64_t num_sets = cfg.numSets();
    SGCN_ASSERT(num_sets > 0 && isPowerOfTwo(num_sets),
                "cache sets must be a power of two, got ", num_sets);
    SGCN_ASSERT(cfg.useStampRenormThreshold < kNeverVictim,
                "use stamps must stay below the padding stamp");
    rowWays = static_cast<unsigned>(divCeil(cfg.ways, kBlockWays)) *
              kBlockWays;
    const std::size_t lines =
        static_cast<std::size_t>(num_sets) * rowWays;
    rowStorage.resize(2 * lines + kBlockWays);
    const std::size_t misalign =
        reinterpret_cast<std::uintptr_t>(rowStorage.data()) % kRowAlign;
    const std::size_t offset =
        (kRowAlign - misalign) % kRowAlign / sizeof(std::uint32_t);
    lineTag = std::span(rowStorage.data() + offset, lines);
    lineUse = std::span(lineTag.data() + lines, lines);
    lineMeta.resize(lines);
    setMask = num_sets - 1;
    setShift = log2Floor(num_sets);
    flush(); // every way invalid, padding stamped kNeverVictim

    // MSHR table: power of two at twice the capacity (minimum 16)
    // keeps the load factor at or below 1/2.
    std::uint64_t slots = 16;
    while (slots < 2 * static_cast<std::uint64_t>(
                        std::max(1u, cfg.mshrs))) {
        slots *= 2;
    }
    mshrSlots = std::vector<MshrEntry>(slots);
    mshrSlotMask = slots - 1;
}

Cache::~Cache()
{
    // Engines drain their event queues before teardown, so every
    // entry's spill chain is already back on the free list; release
    // the pooled nodes themselves (and, defensively, any chain a
    // torn-down simulation abandoned mid-flight).
    for (MshrEntry &entry : mshrSlots) {
        MshrTargetNode *node = entry.overflowHead;
        while (node != nullptr) {
            MshrTargetNode *next = node->next;
            delete node;
            node = next;
        }
    }
    while (mshrTargetFree != nullptr) {
        MshrTargetNode *next = mshrTargetFree->next;
        delete mshrTargetFree;
        mshrTargetFree = next;
    }
}

std::size_t
Cache::mshrHome(Addr line_addr) const
{
    // Fibonacci-style multiplicative mix of the line number; the
    // low bits of feature addresses are stride-patterned, so a
    // plain mask would cluster probes.
    const std::uint64_t line = line_addr / kCachelineBytes;
    return static_cast<std::size_t>(
        (line * 0x9E3779B97F4A7C15ull >> 17) & mshrSlotMask);
}

Cache::MshrEntry *
Cache::mshrFind(Addr line_addr)
{
    std::size_t index = mshrHome(line_addr);
    while (mshrSlots[index].occupied) {
        if (mshrSlots[index].addr == line_addr)
            return &mshrSlots[index];
        index = (index + 1) & mshrSlotMask;
    }
    return nullptr;
}

Cache::MshrEntry &
Cache::mshrAllocate(Addr line_addr)
{
    SGCN_ASSERT(mshrCount < mshrSlots.size() / 2,
                "MSHR table over-filled past its load factor");
    std::size_t index = mshrHome(line_addr);
    while (mshrSlots[index].occupied)
        index = (index + 1) & mshrSlotMask;
    MshrEntry &entry = mshrSlots[index];
    entry.addr = line_addr;
    entry.occupied = true;
    entry.anyWrite = false;
    entry.inlineUsed = 0;
    entry.overflowHead = entry.overflowTail = nullptr;
    ++mshrCount;
    return entry;
}

void
Cache::mshrErase(std::size_t index)
{
    --mshrCount;
    // Backward-shift deletion: pull every displaced follower of the
    // probe chain into the hole instead of leaving a tombstone, so
    // the table never degrades however long the simulation runs.
    std::size_t hole = index;
    std::size_t probe = index;
    while (true) {
        probe = (probe + 1) & mshrSlotMask;
        if (!mshrSlots[probe].occupied)
            break;
        const std::size_t home = mshrHome(mshrSlots[probe].addr);
        // If the entry's home lies cyclically within (hole, probe],
        // a lookup starting at its home never crosses the hole, so
        // it may stay put.
        const bool reachable = hole <= probe
                                   ? (home > hole && home <= probe)
                                   : (home > hole || home <= probe);
        if (reachable)
            continue;
        mshrSlots[hole] = std::move(mshrSlots[probe]);
        hole = probe;
    }
    mshrSlots[hole].occupied = false;
    mshrSlots[hole].inlineUsed = 0;
    mshrSlots[hole].overflowHead = mshrSlots[hole].overflowTail =
        nullptr;
}

void
Cache::mshrPushTarget(MshrEntry &entry, BurstPool::Node *node)
{
    if (entry.inlineUsed < MshrEntry::kInlineTargets) {
        entry.inlineTargets[entry.inlineUsed++] = node;
        return;
    }
    MshrTargetNode *tail = entry.overflowTail;
    if (tail == nullptr || tail->used == MshrTargetNode::kTargets) {
        MshrTargetNode *block;
        if (mshrTargetFree != nullptr) {
            block = mshrTargetFree;
            mshrTargetFree = block->next;
            block->next = nullptr;
            block->used = 0;
        } else {
            block = new MshrTargetNode();
        }
        if (tail == nullptr)
            entry.overflowHead = block;
        else
            tail->next = block;
        entry.overflowTail = block;
        tail = block;
    }
    tail->targets[tail->used++] = node;
}

void
Cache::mshrDispatchTargets(MshrEntry &entry)
{
    for (unsigned i = 0; i < entry.inlineUsed; ++i)
        completeAfterHit(entry.inlineTargets[i]);
    entry.inlineUsed = 0;
    MshrTargetNode *block = entry.overflowHead;
    while (block != nullptr) {
        for (unsigned i = 0; i < block->used; ++i)
            completeAfterHit(block->targets[i]);
        block->used = 0;
        MshrTargetNode *next = block->next;
        block->next = mshrTargetFree;
        mshrTargetFree = block;
        block = next;
    }
    entry.overflowHead = entry.overflowTail = nullptr;
}

void
Cache::completeAfterHit(BurstPool::Node *node)
{
    events.scheduleAfter(cfg.hitLatency, [node] { node->complete(); });
}

std::uint64_t
Cache::setIndex(Addr line_addr) const
{
    return (line_addr / kCachelineBytes) & setMask;
}

std::uint32_t
Cache::tagOf(Addr line_addr) const
{
    const std::uint64_t tag = (line_addr / kCachelineBytes) >> setShift;
    SGCN_ASSERT(tag < kInvalidTag, "line address past the 32-bit "
                "tag range: ", line_addr);
    return static_cast<std::uint32_t>(tag);
}

unsigned
Cache::findWay(std::size_t base, std::uint32_t tag) const
{
    const auto *row = static_cast<const std::uint32_t *>(
        __builtin_assume_aligned(lineTag.data() + base, kRowAlign));
    for (unsigned b = 0; b < rowWays; b += kBlockWays) {
        // Padding never matches, so the lowest set bit is the first
        // way holding the tag, as a scalar walk would find it.
        if (const unsigned mask = matchMask(loadBlock(row + b), tag))
            return b + static_cast<unsigned>(__builtin_ctz(mask));
    }
    return kNoWay;
}

unsigned
Cache::oldestWay(std::size_t base, bool pins) const
{
    const auto *row = static_cast<const std::uint32_t *>(
        __builtin_assume_aligned(lineUse.data() + base, kRowAlign));
    const std::uint8_t *meta = lineMeta.data() + base;
    // One block's stamps as the policy ranks them: pinned ways are
    // forced to kNeverVictim inside the vector (branch-free: they
    // sit at scattered positions).
    const auto stamps = [&](unsigned b) {
        Block block = loadBlock(row + b);
        if (pins) {
            block.q0 |= flagLanes(meta + b, kLinePinned);
            block.q1 |= flagLanes(meta + b + 4, kLinePinned);
            block.q2 |= flagLanes(meta + b + 8, kLinePinned);
            block.q3 |= flagLanes(meta + b + 12, kLinePinned);
        }
        return block;
    };
    Quad low = Quad{} + kNeverVictim;
    for (unsigned b = 0; b < rowWays; b += kBlockWays) {
        const Block block = stamps(b);
        low = minQuad(low, minQuad(minQuad(block.q0, block.q1),
                                   minQuad(block.q2, block.q3)));
    }
    low = minQuad(low, __builtin_shufflevector(low, low, 2, 3, 0, 1));
    low = minQuad(low, __builtin_shufflevector(low, low, 1, 0, 3, 2));
    const std::uint32_t oldest = low[0];
    if (oldest == kNeverVictim)
        return kNoWay; // every real way pinned
    // The first way holding the minimum: invalid ways (stamp 0)
    // come first, in way order, as the policy's tie rule requires.
    for (unsigned b = 0; b < rowWays; b += kBlockWays) {
        if (const unsigned mask = matchMask(stamps(b), oldest))
            return b + static_cast<unsigned>(__builtin_ctz(mask));
    }
    return kNoWay;
}

std::uint32_t
Cache::nextUseStamp()
{
    if (useCounter >= cfg.useStampRenormThreshold)
        renormalizeUseStamps();
    return static_cast<std::uint32_t>(++useCounter);
}

void
Cache::renormalizeUseStamps()
{
    // Dense-rank the live stamps. The policies only ever compare
    // stamps, so any order-preserving remap (ties included) is
    // behavior-identical; nonzero ranks start at 1 so 0 stays
    // strictly below every valid line's stamp — the invariant the
    // invalid-first/min-stamp victim pick relies on. Padding ways
    // keep kNeverVictim.
    const auto live = [](std::uint32_t use) {
        return use != 0 && use != kNeverVictim;
    };
    std::vector<std::uint32_t> sorted;
    sorted.reserve(lineUse.size());
    for (std::uint32_t use : lineUse) {
        if (live(use))
            sorted.push_back(use);
    }
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()),
                 sorted.end());
    for (std::uint32_t &use : lineUse) {
        if (live(use)) {
            use = static_cast<std::uint32_t>(
                std::lower_bound(sorted.begin(), sorted.end(), use) -
                sorted.begin() + 1);
        }
    }
    useCounter = sorted.size();
}

std::size_t
Cache::probe(Addr line_addr)
{
    const std::size_t base = setBase(line_addr);
    const unsigned way = findWay(base, tagOf(line_addr));
    if (way == kNoWay)
        return kNoLine;
    // The promotion below may outrank the duplicate-access memo's
    // line, which then is no longer MRU; drop the memo.
    lastFunctionalAddr = ~Addr{0};
    const std::size_t index = base + way;
    // FIFO keeps the fill timestamp; the others promote.
    if (cfg.replacement != ReplacementPolicy::Fifo)
        lineUse[index] = nextUseStamp();
    lineMeta[index] &= static_cast<std::uint8_t>(
        ~kRrpvMask); // SRRIP: re-referenced -> near
    return index;
}

std::size_t
Cache::selectVictim(std::size_t base)
{
    // The pinned checks only matter while DAVC pins are live; the
    // global count lets the common case pick flag-free.
    const bool pins = pinnedLines != 0;
    // Invalid ways stamp 0, strictly below every valid way's stamp
    // (and are never pinned), so the first way holding the minimum
    // stamp is the first invalid way whenever there is one. Under
    // LRU/FIFO that one pick is both the invalid-first rule and the
    // policy; the other policies take an invalid way outright.
    const bool by_stamp = cfg.replacement == ReplacementPolicy::Lru ||
                          cfg.replacement == ReplacementPolicy::Fifo;
    const unsigned oldest = oldestWay(base, pins && by_stamp);
    if (by_stamp)
        return oldest == kNoWay ? kNoLine : base + oldest;
    if (lineTag[base + oldest] == kInvalidTag)
        return base + oldest;
    switch (cfg.replacement) {
      case ReplacementPolicy::Random: {
        // Deterministic xorshift over unpinned ways.
        unsigned candidates = 0;
        for (unsigned w = 0; w < cfg.ways; ++w) {
            if (!pins || !(lineMeta[base + w] & kLinePinned))
                ++candidates;
        }
        if (candidates == 0)
            return kNoLine;
        victimSeed ^= victimSeed << 13;
        victimSeed ^= victimSeed >> 7;
        victimSeed ^= victimSeed << 17;
        unsigned pick =
            static_cast<unsigned>(victimSeed % candidates);
        for (unsigned w = 0; w < cfg.ways; ++w) {
            if (pins && (lineMeta[base + w] & kLinePinned))
                continue;
            if (pick-- == 0)
                return base + w;
        }
        return kNoLine;
      }
      case ReplacementPolicy::Srrip: {
        // Evict a line with maximal RRPV (3); age everyone until one
        // appears.
        while (true) {
            for (unsigned w = 0; w < cfg.ways; ++w) {
                const std::size_t index = base + w;
                if ((!pins || !(lineMeta[index] & kLinePinned)) &&
                    (lineMeta[index] & kRrpvMask) == kRrpvMask) {
                    return index;
                }
            }
            bool aged = false;
            for (unsigned w = 0; w < cfg.ways; ++w) {
                const std::size_t index = base + w;
                if ((!pins || !(lineMeta[index] & kLinePinned)) &&
                    (lineMeta[index] & kRrpvMask) != kRrpvMask) {
                    lineMeta[index] = static_cast<std::uint8_t>(
                        lineMeta[index] + (1u << kRrpvShift));
                    aged = true;
                }
            }
            if (!aged)
                return kNoLine;
        }
      }
      default:
        return kNoLine;
    }
}

std::size_t
Cache::fill(Addr line_addr, bool timing, TrafficClass cls)
{
    // Any fill may evict the line behind the duplicate-access fast
    // path (timing fills and pins included); drop the memo.
    lastFunctionalAddr = ~Addr{0};
    const std::size_t base = setBase(line_addr);
    // Fully pinned sets fall back to plain LRU so pinning can never
    // deadlock the cache.
    std::size_t victim = selectVictim(base);
    if (victim == kNoLine)
        victim = base + oldestWay(base, false);
    installAt(victim, line_addr, timing, cls);
    return victim;
}

void
Cache::installAt(std::size_t victim, Addr line_addr, bool timing,
                 TrafficClass cls)
{
    if (lineTag[victim] != kInvalidTag) {
        ++statCounters.evictions;
        if (lineMeta[victim] & kLineDirty) {
            ++statCounters.writebacks;
            // Reconstruct the victim's address for the writeback.
            const Addr victim_addr =
                (static_cast<Addr>(lineTag[victim]) *
                     (setMask + 1) +
                 setIndex(line_addr)) *
                kCachelineBytes;
            // Victim classes are not tracked per line; dirty victims
            // are always output features in the modeled dataflows.
            MemRequest writeback{victim_addr, MemOp::Write,
                                 TrafficClass::FeatureOut};
            if (timing)
                dram.accessLine(writeback, nullptr);
            else
                functionalTraffic.add(MemOp::Write,
                                      TrafficClass::FeatureOut);
            (void)cls;
        }
    }

    if (lineMeta[victim] & kLinePinned)
        --pinnedLines;
    lineTag[victim] = tagOf(line_addr);
    lineUse[victim] = nextUseStamp();
    // SRRIP inserts at a distant re-reference prediction (2): a line
    // must prove reuse before it may displace proven lines.
    lineMeta[victim] = 2 << kRrpvShift;
}

void
Cache::access(const MemRequest &request, MemCallback done)
{
    accessLine(request, bursts.single(std::move(done)));
}

void
Cache::accessLine(const MemRequest &request, BurstPool::Node *node)
{
    SGCN_ASSERT(isAligned(request.lineAddr, kCachelineBytes),
                "cache request not line-aligned: ", request.lineAddr);

    const std::size_t hit = probe(request.lineAddr);
    if (hit != kNoLine) {
        ++statCounters.hits;
        if (request.op == MemOp::Write)
            lineMeta[hit] |= kLineDirty;
        if (node != nullptr)
            completeAfterHit(node);
        return;
    }

    ++statCounters.misses;

    if (MshrEntry *mshr = mshrFind(request.lineAddr)) {
        ++statCounters.mshrCoalesced;
        mshr->anyWrite |= (request.op == MemOp::Write);
        if (node != nullptr)
            mshrPushTarget(*mshr, node);
        return;
    }

    if (mshrCount >= cfg.mshrs) {
        pendingQueue.emplace_back(request, node);
        return;
    }

    startMiss(request, node);
}

void
Cache::accessBurst(const AccessPlan &plan, MemOp op, TrafficClass cls,
                   MemCallback done)
{
    const std::uint64_t total = plan.totalLines();
    if (total == 0) {
        if (done)
            done();
        return;
    }
    BurstPool::Node *node =
        bursts.join(static_cast<std::uint32_t>(total), std::move(done));
    plan.forEachLine(
        [&](Addr line) { accessLine(MemRequest{line, op, cls}, node); });
}

void
Cache::accessBurstRmw(const AccessPlan &plan, TrafficClass cls,
                      MemCallback done)
{
    const std::uint64_t total = plan.totalLines();
    if (total == 0) {
        if (done)
            done();
        return;
    }
    BurstPool::Node *node = bursts.join(
        static_cast<std::uint32_t>(2 * total), std::move(done));
    plan.forEachLine([&](Addr line) {
        accessLine(MemRequest{line, MemOp::Read, cls}, node);
        accessLine(MemRequest{line, MemOp::Write, cls}, node);
    });
}

void
Cache::startMiss(const MemRequest &request, BurstPool::Node *node)
{
    MshrEntry &mshr = mshrAllocate(request.lineAddr);
    mshr.cls = request.cls;
    mshr.anyWrite = (request.op == MemOp::Write);
    if (node != nullptr)
        mshrPushTarget(mshr, node);

    // Write-allocate: fetch the line before merging the write. The
    // fetch is tagged with the requester's traffic class so the
    // off-chip breakdown attributes it correctly.
    MemRequest fetch{request.lineAddr, MemOp::Read, request.cls};
    const Addr line_addr = request.lineAddr;
    dram.accessLine(fetch, bursts.join(1, [this, line_addr] {
        finishMiss(line_addr);
    }));
}

void
Cache::finishMiss(Addr line_addr)
{
    MshrEntry *mshr = mshrFind(line_addr);
    SGCN_ASSERT(mshr != nullptr, "fill for unknown MSHR");

    const std::size_t line = fill(line_addr, true, mshr->cls);
    if (mshr->anyWrite)
        lineMeta[line] |= kLineDirty;

    // Targets are only scheduled (never invoked synchronously), so
    // dispatching straight out of the entry cannot re-enter the
    // table before the erase below.
    mshrDispatchTargets(*mshr);
    mshrErase(static_cast<std::size_t>(mshr - mshrSlots.data()));

    drainPendingQueue();
}

void
Cache::drainPendingQueue()
{
    while (pendingHead < pendingQueue.size() &&
           mshrCount < cfg.mshrs) {
        const auto [request, node] = pendingQueue[pendingHead++];

        // Re-check the tag array: an earlier fill may have satisfied
        // this line already.
        const std::size_t hit = probe(request.lineAddr);
        if (hit != kNoLine) {
            ++statCounters.hits;
            if (request.op == MemOp::Write)
                lineMeta[hit] |= kLineDirty;
            if (node != nullptr)
                completeAfterHit(node);
            continue;
        }
        if (MshrEntry *mshr = mshrFind(request.lineAddr)) {
            ++statCounters.mshrCoalesced;
            mshr->anyWrite |= (request.op == MemOp::Write);
            if (node != nullptr)
                mshrPushTarget(*mshr, node);
            continue;
        }
        startMiss(request, node);
    }
    // Drop the consumed prefix once it outweighs the live tail (all
    // of it when the queue drained), so the vector stays within
    // twice its live length; amortized O(1) per request, since each
    // compaction moves fewer entries than were consumed since the
    // last.
    if (pendingHead > pendingQueue.size() / 2) {
        pendingQueue.erase(pendingQueue.begin(),
                           pendingQueue.begin() +
                               static_cast<std::ptrdiff_t>(pendingHead));
        pendingHead = 0;
    }
}

bool
Cache::accessFunctional(const MemRequest &request)
{
    SGCN_ASSERT(isAligned(request.lineAddr, kCachelineBytes));
    const std::uint64_t hits_before = statCounters.hits;
    runFunctional(request.lineAddr, 1, request.op == MemOp::Write,
                  false, request.cls);
    return statCounters.hits != hits_before;
}

void
Cache::accessPlanFunctional(const AccessPlan &plan, MemOp op,
                            TrafficClass cls)
{
    for (unsigned r = 0; r < plan.numRuns; ++r)
        accessRunFunctional(plan.runs[r].addr, plan.runs[r].lines, op,
                            cls);
}

bool
Cache::holds(Addr line_addr) const
{
    return findWay(setBase(line_addr), tagOf(line_addr)) != kNoWay;
}

void
Cache::accessRunFunctional(Addr line_addr, std::uint32_t lines,
                           MemOp op, TrafficClass cls)
{
    runFunctional(line_addr, lines, op == MemOp::Write, false, cls);
}

void
Cache::accessRunRmwFunctional(Addr line_addr, std::uint32_t lines,
                              TrafficClass cls)
{
    runFunctional(line_addr, lines, true, true, cls);
}

void
Cache::runFunctional(Addr line_addr, std::uint32_t lines, bool write,
                     bool rmw, TrafficClass cls)
{
    // Statistics post once per run. Under LRU/FIFO a miss installs
    // straight at oldestWay instead of re-resolving the set through
    // fill(), and the RRPV bookkeeping (dead under these policies)
    // is skipped. Whether pins are live is decided once per run: the
    // victim pick then folds them into its vector (EnGN's DAVC), and
    // a set whose every way is pinned takes fill()'s fallback.
    const bool fused = cfg.replacement == ReplacementPolicy::Lru ||
                       cfg.replacement == ReplacementPolicy::Fifo;
    const bool promote = cfg.replacement != ReplacementPolicy::Fifo;
    const bool pins = pinnedLines != 0;
    std::uint32_t hit_lines = 0;
    for (std::uint32_t i = 0; i < lines;
         ++i, line_addr += kCachelineBytes) {
        std::size_t line;
        // Back-to-back accesses to one line (the read-modify-write
        // partial-sum pattern) are guaranteed hits on an already-MRU
        // line: skip the tag match and the LRU promotion (the
        // skipped useCounter tick shifts later stamps uniformly,
        // preserving their order and thus every future eviction).
        if (line_addr == lastFunctionalAddr) {
            ++hit_lines;
            line = lastFunctionalIndex;
            if (!fused) {
                lineMeta[line] &= static_cast<std::uint8_t>(
                    ~kRrpvMask);
            }
        } else if (!fused) {
            line = probe(line_addr);
            if (line != kNoLine)
                ++hit_lines;
            else
                line = fill(line_addr, false, cls);
        } else {
            const std::size_t base = setBase(line_addr);
            const unsigned way = findWay(base, tagOf(line_addr));
            if (way != kNoWay) {
                ++hit_lines;
                line = base + way;
                if (promote)
                    lineUse[line] = nextUseStamp();
            } else if (const unsigned victim = oldestWay(base, pins);
                       victim != kNoWay) {
                line = base + victim;
                installAt(line, line_addr, false, cls);
            } else {
                line = fill(line_addr, false, cls);
            }
        }
        lastFunctionalAddr = line_addr;
        lastFunctionalIndex = line;
        if (write)
            lineMeta[line] |= kLineDirty;
        // The read-modify-write's write is a duplicate access as
        // above: a hit that dirties (and re-references) the line.
        if (rmw && !fused)
            lineMeta[line] &= static_cast<std::uint8_t>(~kRrpvMask);
    }
    statCounters.hits += hit_lines + (rmw ? lines : 0);
    statCounters.misses += lines - hit_lines;
    if (hit_lines != lines)
        functionalTraffic.add(MemOp::Read, cls, lines - hit_lines);
}

bool
Cache::pin(Addr line_addr, TrafficClass cls)
{
    const std::size_t base = setBase(line_addr);
    unsigned pinned = 0;
    for (unsigned w = 0; w < cfg.ways; ++w)
        pinned += (lineMeta[base + w] & kLinePinned) ? 1 : 0;
    // Leave at least half the ways unpinned so the set stays usable.
    if (pinned >= cfg.ways / 2)
        return false;

    std::size_t line = probe(line_addr);
    if (line == kNoLine) {
        functionalTraffic.add(MemOp::Read, cls);
        line = fill(line_addr, false, cls);
    }
    if (!(lineMeta[line] & kLinePinned)) {
        lineMeta[line] |= kLinePinned;
        ++pinnedLines;
    }
    return true;
}

void
Cache::unpinAll()
{
    if (pinnedLines == 0)
        return;
    for (std::uint8_t &meta : lineMeta)
        meta &= static_cast<std::uint8_t>(~kLinePinned);
    pinnedLines = 0;
}

void
Cache::flush()
{
    for (std::size_t base = 0; base < lineTag.size(); base += rowWays) {
        for (unsigned w = 0; w < rowWays; ++w) {
            const std::size_t i = base + w;
            if (lineTag[i] != kInvalidTag && (lineMeta[i] & kLineDirty)) {
                ++statCounters.writebacks;
                functionalTraffic.add(MemOp::Write,
                                      TrafficClass::FeatureOut);
            }
            lineTag[i] = kInvalidTag;
            lineUse[i] = w < cfg.ways ? 0 : kNeverVictim;
            lineMeta[i] = 0;
        }
    }
    pinnedLines = 0;
    lastFunctionalAddr = ~Addr{0};
}

void
Cache::resetStats()
{
    statCounters = CacheStats{};
    functionalTraffic = TrafficCounters{};
}

} // namespace sgcn
