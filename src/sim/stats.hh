/**
 * @file
 * Small math helpers for the harnesses: the geometric mean.
 */

#ifndef SGCN_SIM_STATS_HH
#define SGCN_SIM_STATS_HH

#include <vector>

namespace sgcn
{

/** Geometric mean of a vector of positive values. */
double geomean(const std::vector<double> &values);

} // namespace sgcn

#endif // SGCN_SIM_STATS_HH
