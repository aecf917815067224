/**
 * @file
 * Sample statistics and the run's metric record.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Linear-interpolated quantile @p q in [0, 1] of @p v (0 if empty). */
double quantile(std::vector<double> v, double q);

/** Median of @p v. */
inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Metrics by name, printed in name order. */
using Metrics = std::map<std::string, Metric>;

/** The result line: the last line a run prints to stdout. */
std::string resultLine(bool correct, long attempted, long failed,
                       const Metrics &metrics);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
