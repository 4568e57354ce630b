#include "sim/stats.hh"

#include <cmath>

#include "sim/logging.hh"

namespace sgcn
{

double
geomean(const std::vector<double> &values)
{
    SGCN_ASSERT(!values.empty());
    double log_sum = 0.0;
    for (double value : values) {
        SGCN_ASSERT(value > 0.0, "geomean needs positive values");
        log_sum += std::log(value);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace sgcn
