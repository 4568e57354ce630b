#include "sim/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace sgcn
{

namespace
{

/** Nesting level of the batch index this thread is running. */
thread_local unsigned currentDepth = 0;

/** One parallelFor call; lives on its caller's stack. */
struct Batch
{
    Batch(const std::function<void(std::size_t)> &body, std::size_t n,
          unsigned jobs)
        : fn(body), count(n), limit(jobs), depth(currentDepth)
    {
    }

    const std::function<void(std::size_t)> &fn;
    const std::size_t count;
    /** Most participants (caller included) allowed at once. */
    const unsigned limit;
    /** Nesting level of the posting thread (0 = not inside a batch). */
    const unsigned depth;

    /** Next unclaimed index; claimed lock-free. */
    std::atomic<std::size_t> next{0};
    /** Finished indices. Helpers bump it under the pool mutex as
     *  their last touch, so a caller that sees count there knows no
     *  helper still uses the batch. */
    std::atomic<std::size_t> done{0};

    // Guarded by the pool mutex.
    unsigned active = 0;
    std::size_t failedIndex = ~std::size_t{0};
    std::exception_ptr failure;
};

/** Run index @p i of @p batch; returns its exception, if any. */
std::exception_ptr
execute(Batch &batch, std::size_t i)
{
    const unsigned saved = currentDepth;
    currentDepth = batch.depth + 1;
    std::exception_ptr error;
    try {
        batch.fn(i);
    } catch (...) {
        error = std::current_exception();
    }
    currentDepth = saved;
    return error;
}

/** Keep the lowest failing index's exception (pool mutex held). */
void
recordFailure(Batch &batch, std::size_t i, std::exception_ptr error)
{
    if (error && i < batch.failedIndex) {
        batch.failedIndex = i;
        batch.failure = std::move(error);
    }
}

class Pool
{
  public:
    /** The process-wide pool. Never destroyed, so its workers are
     *  never joined: idle ones block until exit, and exit may itself
     *  run on a worker (fatal() inside a task), where a destructor
     *  joining the pool would join its own thread. */
    static Pool &
    instance()
    {
        static Pool *pool = new Pool;
        return *pool;
    }

    /** Post @p batch, run it with whatever help arrives, and return
     *  (or rethrow its lowest-index failure) once every index ran. */
    void
    run(Batch &batch)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            while (workers.size() + 1 < batch.limit)
                workers.emplace_back([this] { workerLoop(); });
            batch.active = 1;
            open.push_back(&batch);
        }
        changed.notify_all();

        for (;;) {
            const std::size_t i = batch.next.fetch_add(1);
            if (i >= batch.count)
                break;
            if (std::exception_ptr error = execute(batch, i)) {
                std::lock_guard<std::mutex> lock(mutex);
                recordFailure(batch, i, std::move(error));
            }
            batch.done.fetch_add(1);
        }

        // Every index is claimed. Help batches at this depth or
        // deeper (never an outer batch, whose long index would delay
        // this one) until the stragglers finish.
        std::unique_lock<std::mutex> lock(mutex);
        --batch.active;
        while (batch.done.load() != batch.count) {
            if (Batch *other = pick(batch.depth))
                helpOnce(lock, *other);
            else
                changed.wait(lock);
        }
        open.erase(std::find(open.begin(), open.end(), &batch));
        lock.unlock();
        if (batch.failure)
            std::rethrow_exception(batch.failure);
    }

  private:
    Pool() = default;

    void
    workerLoop()
    {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            if (Batch *batch = pick(0))
                helpOnce(lock, *batch);
            else
                changed.wait(lock);
        }
    }

    /**
     * The open batch a free thread should join: one with unclaimed
     * indices and a free participant slot at @p min_depth or deeper.
     * Shallowest first, oldest first among equals: outer work (a new
     * sweep cell, a new served batch) keeps each thread on its own
     * inputs, and only once it runs out do threads help the layers
     * of the stragglers. Helping earlier would only make threads
     * wait on each other's shared-artifact builds.
     */
    Batch *
    pick(unsigned min_depth) const
    {
        Batch *best = nullptr;
        for (Batch *batch : open) {
            if (batch->depth < min_depth ||
                batch->active >= batch->limit ||
                batch->next.load() >= batch->count)
                continue;
            if (!best || batch->depth < best->depth)
                best = batch;
        }
        return best;
    }

    /**
     * Claim and run one index of @p batch, unlocked while it runs.
     * The claim happens under the lock: a batch cannot finish (and
     * leave its caller's stack) between being picked and claimed.
     */
    void
    helpOnce(std::unique_lock<std::mutex> &lock, Batch &batch)
    {
        const std::size_t i = batch.next.fetch_add(1);
        if (i >= batch.count)
            return; // its caller claimed the rest lock-free
        ++batch.active;
        lock.unlock();
        std::exception_ptr error = execute(batch, i);
        lock.lock();
        --batch.active;
        recordFailure(batch, i, std::move(error));
        if (batch.done.fetch_add(1) + 1 == batch.count)
            changed.notify_all();
    }

    std::mutex mutex;
    std::condition_variable changed;
    /** Posted batches whose callers have not returned yet. */
    std::vector<Batch *> open;
    std::vector<std::thread> workers;
};

} // namespace

unsigned
hardwareJobs()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

unsigned
resolveJobs(unsigned jobs)
{
    return jobs ? jobs : hardwareJobs();
}

void
parallelFor(unsigned jobs, std::size_t count,
            const std::function<void(std::size_t)> &fn)
{
    const std::size_t threads =
        std::min<std::size_t>(resolveJobs(jobs), count);
    if (threads <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    Batch batch(fn, count, static_cast<unsigned>(threads));
    Pool::instance().run(batch);
}

Status
parallelTry(unsigned jobs, std::size_t count,
            const std::function<Status(std::size_t)> &fn)
{
    // Per-index slots keep the fan-out lock-free.
    std::vector<Status> statuses(count);
    parallelFor(jobs, count,
                [&](std::size_t i) { statuses[i] = fn(i); });
    for (Status &status : statuses) {
        if (!status.ok())
            return std::move(status);
    }
    return Status::success();
}

} // namespace sgcn
