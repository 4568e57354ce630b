/**
 * @file
 * Machine-readable result export. Every metric a run exports is
 * declared once, as one row of a field table (metricBlocks()): its
 * CSV column, its --stats key and a typed accessor. The run CSV and
 * the --stats dump both read the table, so the two cannot drift, and
 * integer metrics print exactly in both. The one-line summaries and
 * the schedule CSV are written by hand.
 */

#ifndef SGCN_ACCEL_REPORT_HH
#define SGCN_ACCEL_REPORT_HH

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "accel/result.hh"

namespace sgcn
{

/** One exported value: an exact integer, a real, or text. */
using MetricValue = std::variant<std::uint64_t, double, std::string>;

/** One exported metric: a row of a field table. */
struct MetricField
{
    template <typename T>
    using Getter = T (*)(const RunResult &);

    /** CSV column name (nullptr: not a CSV column). */
    const char *csv;

    /** --stats key (nullptr: not a stat). */
    const char *stat;

    /** Accessor; the type it returns is the metric's kind. */
    std::variant<Getter<std::uint64_t>, Getter<double>,
                 Getter<std::string>>
        get;

    /** The metric's value for @p run. */
    MetricValue value(const RunResult &run) const;
};

/** When a block's CSV columns are written. */
enum class CsvColumns : std::uint8_t
{
    /** On every export. */
    Always,
    /** Only when some run of the export has the block enabled, and
     *  then on every row, so mixed sweeps stay rectangular. */
    WhenAnyRunHasIt,
};

/** The metrics of one part of a RunResult (totals, pipeline, ...). */
struct MetricBlock
{
    CsvColumns csv;

    /** The run has this block; gates the block's --stats keys. */
    bool (*enabled)(const RunResult &);

    std::span<const MetricField> fields;
};

/** The field tables in CSV column order: totals, pipeline, shard,
 *  fault, serve. */
std::span<const MetricBlock> metricBlocks();

/** Write runs as a CSV file: a header and one row per run. */
void writeRunsCsv(const std::vector<RunResult> &runs,
                  const std::string &path);

/** The run's --stats values by key: every stat-keyed field of each
 *  block the run has enabled. */
std::map<std::string, MetricValue> runResultStats(const RunResult &run);

/** runResultStats() as "key = value" lines sorted by key, each after
 *  @p indent. Integers print exactly, reals with default precision. */
std::string statsDump(const RunResult &run,
                      const std::string &indent = "");

/** One-line pipelining summary ("" when the run was serial). */
std::string pipelineSummaryLine(const RunResult &run);

/** One-line multi-chip summary ("" for a one-chip run). */
std::string shardSummaryLine(const RunResult &run);

/** One-line fault summary ("" when the run was fault-free). */
std::string faultSummaryLine(const RunResult &run);

/** One-line serving summary ("" when the run served no trace). */
std::string serveSummaryLine(const RunResult &run);

/**
 * Write the runs' layer schedules as one CSV (the ROADMAP Gantt
 * export): one row per phase span and one per tile span of each
 * run's input layer and every sampled intermediate layer. Columns:
 * accel (distinguishes the runs), dataset, layer (0 = input, else
 * the architectural index), record ("phase"/"tile"), name (phase
 * name or tile index), start, end, ready (tile rows only; empty for
 * phases), plus "recovered" when any run replayed a layer after a
 * chip failure.
 */
void writeSchedulesCsv(const std::vector<RunResult> &runs,
                       const std::vector<unsigned> &sampled_layers,
                       const std::string &path);

} // namespace sgcn

#endif // SGCN_ACCEL_REPORT_HH
