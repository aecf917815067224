#include "campaign/online_stats.hh"

#include <algorithm>
#include <cmath>

#include "campaign/json.hh"
#include "sim/logging.hh"

namespace bpsim
{

namespace
{

double
populationVariance(std::uint64_t n, double sum, double sum_sq)
{
    if (n < 2)
        return 0.0;
    const auto nd = static_cast<double>(n);
    return std::max(0.0, (sum_sq - sum * sum / nd) / nd);
}

} // namespace

double
meanCiHalfWidth(std::uint64_t n, double sum, double sum_sq, double z)
{
    if (n < 2)
        return 0.0;
    return z * std::sqrt(populationVariance(n, sum, sum_sq) /
                         static_cast<double>(n));
}

void
MergingMetric::add(double x)
{
    sum_.add(x);
    sumSq_.add(x * x);
    digest_.add(x);
}

void
MergingMetric::merge(const MergingMetric &other)
{
    if (count() == 0) {
        *this = other;
        return;
    }
    sum_.merge(other.sum_);
    sumSq_.merge(other.sumSq_);
    digest_.merge(other.digest_);
}

double
MergingMetric::mean() const
{
    const std::uint64_t n = count();
    return n ? sum_.value() / static_cast<double>(n) : 0.0;
}

double
MergingMetric::variance() const
{
    return populationVariance(count(), sum_.value(), sumSq_.value());
}

double
MergingMetric::stddev() const
{
    return std::sqrt(variance());
}

double
MergingMetric::meanCiHalfWidth(double z) const
{
    return bpsim::meanCiHalfWidth(count(), sum_.value(), sumSq_.value(), z);
}

void
MergingMetric::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.key("sum");
    sum_.writeJson(w);
    w.key("sum_sq");
    sumSq_.writeJson(w);
    w.key("tdigest");
    digest_.writeJson(w);
    w.endObject();
}

std::optional<MergingMetric>
MergingMetric::fromJson(const JsonValue &v)
{
    const JsonValue *sum = v.find("sum");
    const JsonValue *sum_sq = v.find("sum_sq");
    const JsonValue *digest = v.find("tdigest");
    if (!sum || !sum_sq || !digest)
        return std::nullopt;
    auto s = ExactSum::fromJson(*sum);
    auto sq = ExactSum::fromJson(*sum_sq);
    auto td = TDigest::fromJson(*digest);
    if (!s || !sq || !td)
        return std::nullopt;
    MergingMetric m;
    m.sum_ = *s;
    m.sumSq_ = *sq;
    m.digest_ = std::move(*td);
    return m;
}

BinomialCi
wilsonInterval(std::uint64_t successes, std::uint64_t trials, double z)
{
    BinomialCi ci;
    if (trials == 0)
        return ci;
    BPSIM_ASSERT(successes <= trials, "%llu successes out of %llu trials",
                 static_cast<unsigned long long>(successes),
                 static_cast<unsigned long long>(trials));
    const auto n = static_cast<double>(trials);
    const double phat = static_cast<double>(successes) / n;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double center = (phat + z2 / (2.0 * n)) / denom;
    const double half =
        z / denom * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n));
    ci.fraction = phat;
    ci.lo = std::max(0.0, center - half);
    ci.hi = std::min(1.0, center + half);
    return ci;
}

} // namespace bpsim
