/**
 * @file
 * Host-time spans for the traced benchmark run.
 *
 * The benchmark wraps its own calls into the simulator's public
 * functions in Span objects; nothing inside src/ is instrumented.
 * Spans are kept in memory (thread-safe: cells run on the jobs pool)
 * and written once, at exit, as Chrome trace-event JSON that opens
 * in chrome://tracing or Perfetto. Each span carries the layer key
 * it is summed into for the per-layer metrics.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench
{

struct SpanRecord
{
    std::string name;

    /** Per-layer metric key the span's time is summed into. */
    std::string layer;

    /** Free-form context (dataset, personality, mode). */
    std::string detail;

    std::uint64_t id = 0;

    /** Enclosing span, 0 for a root. */
    std::uint64_t parent = 0;

    double startUs = 0.0;
    double endUs = 0.0;

    /** Small per-tracer thread index. */
    unsigned thread = 0;
};

class Tracer
{
  public:
    /** @param run_id workload and seed, stamped on every span */
    explicit Tracer(std::string run_id);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    std::uint64_t nextId();

    /** Microseconds since the tracer was created. */
    double nowUs() const;

    void record(SpanRecord span);

    /** Summed duration of every span of @p layer, in ms. */
    double totalMs(const std::string &layer) const;

    std::vector<SpanRecord> spans() const;

    /** The spans as Chrome trace-event JSON. */
    std::string chromeJson() const;

    const std::string &runId() const { return run; }

  private:
    const std::string run;
    const std::chrono::steady_clock::time_point origin;

    mutable std::mutex mutex;
    std::vector<SpanRecord> records;
    std::map<std::thread::id, unsigned> threads;
    std::uint64_t lastId = 0;
};

/**
 * RAII span: records [construction, destruction) into @p tracer.
 * A null tracer makes it a no-op, so the untraced run executes the
 * same code with no clock reads.
 */
class Span
{
  public:
    Span(Tracer *tracer, std::string name, std::string layer,
         std::uint64_t parent = 0, std::string detail = {});
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id, to parent spans started on other threads. */
    std::uint64_t id() const { return record.id; }

  private:
    Tracer *tracer;
    SpanRecord record;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
