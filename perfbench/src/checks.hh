/**
 * @file
 * Output checks applied to every simulated cell of a workload.
 *
 * A cell (one personality on one input in one mode, or one served
 * trace) fails if the simulator returns an error or if any check on
 * its result fails; failed / attempted is the run's error rate.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "accel/result.hh"

namespace perfbench
{

/** Attempted and failed cells, with the first few failure reasons. */
class CheckTally
{
  public:
    /** Count one cell; @p failure empty means it passed. */
    void cell(const std::string &what, const std::string &failure);

    std::uint64_t attempted() const { return attemptedCells; }
    std::uint64_t failed() const { return failedCells; }
    double errorRate() const;
    const std::vector<std::string> &failures() const { return reasons; }

  private:
    std::uint64_t attemptedCells = 0;
    std::uint64_t failedCells = 0;
    std::vector<std::string> reasons;
};

/** Every simulated layer ends its schedule at its cycle count. */
std::string checkSchedules(const sgcn::RunResult &run);

/** Fast and timing modes did the same work (equal MACs). */
std::string checkModeMacs(const sgcn::RunResult &fast,
                          const sgcn::RunResult &timing);

/** p50 <= p95 <= p99, every request batched, batches <= requests. */
std::string checkServe(const sgcn::RunResult &run, unsigned requests);

/** One chipCycles entry per chip, the bottleneck among them. */
std::string checkShards(const sgcn::RunResult &run, unsigned chips);

/** Two runs of one cell report identical simulated counts. */
std::string checkRepeat(const sgcn::RunResult &first,
                        const sgcn::RunResult &again);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
