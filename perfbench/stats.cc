#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench
{

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string
resultLine(bool correct, long attempted, long failed, const Metrics &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto &[name, m] : metrics) {
        // Non-finite values are not JSON; report them as -1 so the
        // reader sees a broken metric instead of a parse error.
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(m.value) ? m.value : -1.0);
        out += first ? "" : ", ";
        out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               m.unit + "\"}";
        first = false;
    }
    out += "}}";
    return out;
}

} // namespace perfbench
