/**
 * @file
 * Pooled completion joins for bulk (multi-line) memory accesses.
 *
 * The timing engines used to issue every cacheline of an AccessPlan
 * as its own request, with a heap-allocated std::function callback
 * holding a shared_ptr<unsigned> join counter. A BurstPool node
 * replaces both: one plain counter per burst, recycled through a
 * free list. Inside the cache and DRAM models a line's completion is
 * just a (nullable) Node pointer: queue entries, MSHR targets and
 * completion events carry the pointer as plain data, and only the
 * node holds a type-erased callback.
 *
 * Two completion disciplines share the node type:
 *  - join():   the stored callback fires once, when the last of
 *              @p parts completions arrives (bulk plan accesses,
 *              multi-plan work items);
 *  - fanout(): the stored callback fires on every completion, and
 *              the node retires after @p parts of them (windowed
 *              streams that re-issue per line).
 *
 * Pools are owned by single-threaded simulation components (one
 * simulation per thread); they are not thread-safe. All nodes must
 * have completed before the pool is destroyed — guaranteed by the
 * engines, which drain their event queue before teardown.
 */

#ifndef SGCN_MEM_BURST_HH
#define SGCN_MEM_BURST_HH

#include <cstdint>

#include "mem/mem_request.hh"
#include "sim/logging.hh"

namespace sgcn
{

/** Free-list pool of burst completion nodes. */
class BurstPool
{
  public:
    class Node
    {
      public:
        /** Record one part completion. */
        void
        complete()
        {
            SGCN_ASSERT(remaining > 0, "burst over-completed");
            if (perLine)
                done();
            if (--remaining == 0) {
                BurstPool &owner = *pool;
                MemCallback final =
                    perLine ? MemCallback{} : std::move(done);
                owner.release(this);
                // Invoke after release so a re-entrant burst started
                // by the callback can recycle this node immediately.
                if (final)
                    final();
            }
        }

      private:
        friend class BurstPool;

        std::uint32_t remaining = 0;
        bool perLine = false;
        MemCallback done;
        BurstPool *pool = nullptr;
        Node *next = nullptr;
    };

    BurstPool() = default;
    BurstPool(const BurstPool &) = delete;
    BurstPool &operator=(const BurstPool &) = delete;

    ~BurstPool()
    {
        while (freeList != nullptr) {
            Node *next = freeList->next;
            delete freeList;
            freeList = next;
        }
    }

    /** One-shot join: @p done fires when all @p parts complete. */
    Node *
    join(std::uint32_t parts, MemCallback done)
    {
        Node *node = acquire(parts, std::move(done));
        node->perLine = false;
        return node;
    }

    /** Per-completion fanout: @p each fires on every one of
     *  @p parts completions; the node retires after the last. */
    Node *
    fanout(std::uint32_t parts, MemCallback each)
    {
        Node *node = acquire(parts, std::move(each));
        node->perLine = true;
        return node;
    }

    /** One-line completion: a join(1, @p done) node, or null when
     *  @p done is empty (the line then signals nothing). */
    Node *
    single(MemCallback done)
    {
        return done ? join(1, std::move(done)) : nullptr;
    }

    /** A part-completion callback for @p node, for issuers that take
     *  a MemCallback (captures only the node pointer). */
    static MemCallback
    part(Node *node)
    {
        return MemCallback([node] { node->complete(); });
    }

    /** Nodes parked on the free list (observability for tests). */
    std::size_t
    freeNodes() const
    {
        std::size_t count = 0;
        for (const Node *node = freeList; node != nullptr;
             node = node->next)
            ++count;
        return count;
    }

  private:
    Node *
    acquire(std::uint32_t parts, MemCallback done)
    {
        SGCN_ASSERT(parts > 0, "zero-part burst join");
        Node *node = freeList;
        if (node != nullptr)
            freeList = node->next;
        else
            node = new Node;
        node->remaining = parts;
        node->done = std::move(done);
        node->pool = this;
        node->next = nullptr;
        return node;
    }

    void
    release(Node *node)
    {
        node->done = nullptr;
        node->next = freeList;
        freeList = node;
    }

    Node *freeList = nullptr;
};

} // namespace sgcn

#endif // SGCN_MEM_BURST_HH
