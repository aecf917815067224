/**
 * @file
 * Online (single-pass, bounded-memory) statistics for Monte Carlo
 * campaigns: the one mergeable per-metric aggregate (ExactSum moments
 * plus a t-digest), the CI half-width every stop rule and export uses,
 * and Wilson score intervals for binomial proportions (loss-free-year
 * fraction).
 *
 * Everything here is deterministic in the input *sequence*: feeding
 * the same observations in the same order yields bit-identical state.
 * The campaign runner exploits this by always consuming trial results
 * in trial-id order, so campaign statistics do not depend on the
 * thread count or scheduling (see campaign/runner.hh). Counts, means,
 * variances and CIs are further bit-identical for ANY partition of the
 * trials into merged parts, because the sums are exact.
 */

#ifndef BPSIM_CAMPAIGN_ONLINE_STATS_HH
#define BPSIM_CAMPAIGN_ONLINE_STATS_HH

#include <cstdint>
#include <optional>

#include "campaign/exact_sum.hh"
#include "campaign/tdigest.hh"

namespace bpsim
{

/** Digest compression of every campaign metric (≲1% mid-rank error). */
constexpr double kMetricDigestCompression = 100.0;

/**
 * Normal-approximation half-width of the CI on the mean of @p n
 * observations whose exact sums have the values @p sum (Σx) and
 * @p sum_sq (Σx²): z * sqrt(var / n), var the population variance
 * (clamped at 0). Zero for fewer than 2 observations. The one formula
 * behind every campaign, shard and merged CI and both early-stop
 * evaluations (live and replayed), so they cannot disagree.
 */
double meanCiHalfWidth(std::uint64_t n, double sum, double sum_sq,
                       double z = 1.96);

/**
 * One campaign metric: ExactSum sums (for bit-stable mean/variance
 * under any partitioning) and a t-digest for count, exact min/max and
 * quantiles. Campaigns, shards, checkpoints and merged results all
 * aggregate with this type.
 */
class MergingMetric
{
  public:
    /** Add one per-trial observation. */
    void add(double x);

    /**
     * Fold another metric in (exact except for digest placement).
     * Merging into an empty metric copies @p other's state verbatim,
     * so a one-part merge reports exactly what the part did.
     */
    void merge(const MergingMetric &other);

    std::uint64_t count() const { return digest_.count(); }
    double min() const { return digest_.min(); }
    double max() const { return digest_.max(); }
    /** sum/n via ExactSum: bit-identical for any shard partition. */
    double mean() const;
    /** Population variance from exact sums (clamped at 0). */
    double variance() const;
    double stddev() const;
    /** meanCiHalfWidth() of this metric. */
    double meanCiHalfWidth(double z = 1.96) const;

    double quantile(double q) const { return digest_.quantile(q); }
    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }

    const ExactSum &sum() const { return sum_; }
    const ExactSum &sumSq() const { return sumSq_; }
    const TDigest &digest() const { return digest_; }

    /**
     * Emit the exact state as a JSON object in value position (the
     * digest unflushed, so a restored metric continues bit-identically).
     */
    void writeJson(JsonWriter &w) const;
    /** Rebuild from writeJson output; nullopt when malformed. */
    static std::optional<MergingMetric> fromJson(const JsonValue &v);

  private:
    ExactSum sum_, sumSq_;
    TDigest digest_{kMetricDigestCompression};
};

/** A binomial proportion with its Wilson score interval. */
struct BinomialCi
{
    double fraction = 0.0;
    double lo = 0.0;
    double hi = 0.0;
};

/**
 * Wilson score interval for @p successes out of @p trials at normal
 * quantile @p z (1.96 = 95%). Well-behaved at 0 and 1, unlike the
 * Wald interval. Returns all-zero for trials == 0.
 */
BinomialCi wilsonInterval(std::uint64_t successes, std::uint64_t trials,
                          double z = 1.96);

} // namespace bpsim

#endif // BPSIM_CAMPAIGN_ONLINE_STATS_HH
