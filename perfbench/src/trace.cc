#include "trace.hh"

#include <cstdio>

namespace perfbench
{

namespace
{

/** @p text as a JSON string literal. */
std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace

Tracer::Tracer(std::string run_id)
    : run(std::move(run_id)), origin(std::chrono::steady_clock::now())
{
}

std::uint64_t
Tracer::nextId()
{
    std::lock_guard<std::mutex> lock(mutex);
    return ++lastId;
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

void
Tracer::record(SpanRecord span)
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto [it, inserted] = threads.emplace(
        std::this_thread::get_id(),
        static_cast<unsigned>(threads.size()));
    span.thread = it->second;
    records.push_back(std::move(span));
}

double
Tracer::totalMs(const std::string &layer) const
{
    std::lock_guard<std::mutex> lock(mutex);
    double us = 0.0;
    for (const SpanRecord &span : records) {
        if (span.layer == layer)
            us += span.endUs - span.startUs;
    }
    return us / 1000.0;
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return records;
}

std::string
Tracer::chromeJson() const
{
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    char num[160];
    for (const SpanRecord &span : spans()) {
        out += first ? "\n" : ",\n";
        first = false;
        std::snprintf(num, sizeof(num),
                      "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                      "\"ts\": %.3f, \"dur\": %.3f",
                      span.thread, span.startUs,
                      span.endUs - span.startUs);
        out += "{\"name\": " + quoted(span.name) +
               ", \"cat\": " + quoted(span.layer) + ", " + num +
               ", \"args\": {\"id\": " + std::to_string(span.id) +
               ", \"parent\": " + std::to_string(span.parent) +
               ", \"run\": " + quoted(run) +
               ", \"detail\": " + quoted(span.detail) + "}}";
    }
    return out + "\n]}\n";
}

Span::Span(Tracer *tracer_, std::string name, std::string layer,
           std::uint64_t parent, std::string detail)
    : tracer(tracer_)
{
    if (!tracer)
        return;
    record.name = std::move(name);
    record.layer = std::move(layer);
    record.detail = std::move(detail);
    record.parent = parent;
    record.id = tracer->nextId();
    record.startUs = tracer->nowUs();
}

Span::~Span()
{
    if (!tracer)
        return;
    record.endUs = tracer->nowUs();
    tracer->record(std::move(record));
}

} // namespace perfbench
