/**
 * @file
 * Machine-readable result export: CSV rows and a gem5-style StatSet
 * dump for RunResults, so harness outputs can be plotted or diffed
 * without scraping the pretty tables.
 */

#ifndef SGCN_ACCEL_REPORT_HH
#define SGCN_ACCEL_REPORT_HH

#include <string>
#include <vector>

#include "accel/result.hh"
#include "sim/stats.hh"

namespace sgcn
{

/** CSV header matching runResultCsvRow(). */
std::string runResultCsvHeader();

/** One CSV row for a run. */
std::string runResultCsvRow(const RunResult &run);

/** Extra header fragment for fault-injection columns (leading comma
 *  included). Appended by writeRunsCsv only when some run actually
 *  injected faults, so fault-free CSVs stay byte-identical to
 *  pre-fault releases. */
std::string faultCsvHeaderSuffix();

/** Fault-column values for one run, matching faultCsvHeaderSuffix()
 *  (leading comma included; all-zero columns when the run itself was
 *  fault-free). */
std::string faultCsvRowSuffix(const RunResult &run);

/** Extra header fragment for serving-trace columns (leading comma
 *  included). Appended by writeRunsCsv only when some run served a
 *  trace, under the same mixed-sweep policy as the fault columns. */
std::string serveCsvHeaderSuffix();

/** Serve-column values for one run, matching serveCsvHeaderSuffix()
 *  (leading comma included; all-zero columns when the run itself
 *  did not serve). */
std::string serveCsvRowSuffix(const RunResult &run);

/** Write runs as a CSV file (header + one row per run). Fault and
 *  serve columns are appended — for every row, so mixed sweeps stay
 *  rectangular — when any run has the matching stats enabled. */
void writeRunsCsv(const std::vector<RunResult> &runs,
                  const std::string &path);

/** Flatten a run into named scalar statistics. */
StatSet runResultStats(const RunResult &run);

/** One-line pipelining summary ("" when the run was serial). */
std::string pipelineSummaryLine(const RunResult &run);

/** One-line multi-chip summary ("" for a one-chip run). */
std::string shardSummaryLine(const RunResult &run);

/** One-line fault summary ("" when the run was fault-free). */
std::string faultSummaryLine(const RunResult &run);

/** One-line serving summary ("" when the run served no trace). */
std::string serveSummaryLine(const RunResult &run);

/**
 * Write the run's layer schedules as CSV (the ROADMAP Gantt export):
 * one row per phase span and one per tile span of the input layer
 * and every sampled intermediate layer. Columns: accel, dataset,
 * layer (0 = input, else the architectural index), record
 * ("phase"/"tile"), name (phase name or tile index), start, end,
 * ready (tile rows only; empty for phases).
 */
void writeScheduleCsv(const RunResult &run,
                      const std::vector<unsigned> &sampled_layers,
                      const std::string &path);

/** writeScheduleCsv over several runs into one file (the accel
 *  column distinguishes them). */
void writeSchedulesCsv(const std::vector<RunResult> &runs,
                       const std::vector<unsigned> &sampled_layers,
                       const std::string &path);

} // namespace sgcn

#endif // SGCN_ACCEL_REPORT_HH
