/**
 * @file
 * The benchmark's metric catalogue and its output.
 *
 * Every metric is declared once here with its unit and direction;
 * BENCHMARK.json at the repository root lists the same names, and
 * tests/test_run.py keeps the two in step. An untraced run reports
 * the end-to-end metrics, a traced run the per-layer ones. The last
 * line of standard output is the JSON result object.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

struct MetricDef
{
    std::string name;
    std::string unit;

    /** "lower" or "higher". */
    std::string better;
};

/** Host time and fidelity a user of the simulator sees. */
const std::vector<MetricDef> &endToEndMetrics();

/** Per-module host time, cache counters and exact simulated counts. */
const std::vector<MetricDef> &perLayerMetrics();

/** Personalities the per-personality metrics are named after. */
const std::vector<std::string> &personalityNames();

/** Short dataflow-strategy names (the src/accel/dataflow/ files). */
const std::vector<std::string> &strategyNames();

/** Personalities the serve and shard metrics cover. */
const std::vector<std::string> &pairNames();

class Report
{
  public:
    void set(const std::string &name, double value);
    void add(const std::string &name, double value);
    double get(const std::string &name) const;

    /** Set every metric of @p defs that is still unset to 0: the
     *  workload does not exercise that layer. */
    void zeroUnset(const std::vector<MetricDef> &defs);

    /**
     * The result object: correct/attempted/failed plus every metric
     * of @p defs as {"value", "unit"}. Throws std::logic_error if a
     * metric is missing or not finite.
     */
    std::string jsonLine(const std::vector<MetricDef> &defs,
                         bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const;

    /** One "name value unit direction" line per metric of @p defs. */
    void printTable(std::FILE *out,
                    const std::vector<MetricDef> &defs) const;

  private:
    std::map<std::string, double> values;
};

/** Shortest round-trip decimal form of @p value. */
std::string formatNumber(double value);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
