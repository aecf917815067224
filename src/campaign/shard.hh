/**
 * @file
 * Distributed campaign sharding: split one annual campaign's trial
 * range [0, N) into contiguous shards, run each shard independently
 * (on separate machines — `Rng::stream(seed, id)` needs no
 * cross-shard coordination), export a self-describing per-shard
 * aggregate file, and merge the shard files back into campaign
 * aggregates.
 *
 * The merge invariant (asserted by the `shard`-labeled ctests):
 * count, mean, min/max, variance-derived CI half-widths and the
 * Wilson loss-free interval of the merged campaign are bit-identical
 * for ANY shard count and merge order — counts are integers, sums are
 * ExactSum superaccumulators, and everything else is a deterministic
 * function of those. Quantiles come from merged t-digests and are
 * rank-accurate (≈0.5–1% of rank at δ=100) rather than bitwise.
 *
 * Early stop across shards: a campaign early-stop rule needs the
 * in-order trial prefix, which no single shard owns. Shards therefore
 * record cumulative checkpoints of the downtime sums at a configurable
 * cadence; `evaluateEarlyStop` replays the merged in-order prefix at
 * those boundaries (and at every shard end) and reports where a
 * single-machine coordinator would have stopped. See docs/CAMPAIGN.md
 * "Sharding".
 *
 * The shard file is also the campaign checkpoint format: a checkpoint
 * is the shard file of trials [0, K) (campaign/checkpoint.hh).
 */

#ifndef BPSIM_CAMPAIGN_SHARD_HH
#define BPSIM_CAMPAIGN_SHARD_HH

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "campaign/annual_campaign.hh"
#include "obs/histogram.hh"
#include "obs/incident.hh"

namespace bpsim
{

/** Version stamped into every shard file; bump on format changes. */
constexpr int kShardSchemaVersion = 2;
/** Schema identifier stamped into every shard file. */
constexpr const char *kShardSchemaName = "bpsim.campaign.shard";

/** Identity of one shard within a larger campaign. */
struct ShardSpec
{
    /** Campaign seed; trial t draws from Rng::stream(seed, t). */
    std::uint64_t seed = 1;
    /** Total campaign size N (the union of all shards). */
    std::uint64_t campaignTrials = 0;
    /** This shard's global trial range [lo, hi). */
    std::uint64_t lo = 0, hi = 0;
    /** Position within the partition (informational). */
    std::uint64_t shardIndex = 0, shardCount = 1;

    std::uint64_t width() const { return hi - lo; }
};

/**
 * The @p index-th of @p count balanced contiguous shards of a
 * @p trials-trial campaign (the first `trials % count` shards get one
 * extra trial).
 */
ShardSpec shardOf(std::uint64_t seed, std::uint64_t trials,
                  std::uint64_t index, std::uint64_t count);

/**
 * Cumulative prefix snapshot of the early-stop metric (downtime
 * min/yr) after the first @p trials trials *of this shard*.
 */
struct ShardCheckpoint
{
    std::uint64_t trials = 0;
    ExactSum sum, sumSq;
};

/**
 * Aggregates of one executed shard: global trials [spec.lo, spec.hi),
 * all of them (trials == spec.width()).
 */
struct ShardResult : TrialAggregate
{
    ShardSpec spec;

    /**
     * Early-stop bookkeeping: cumulative downtime prefixes at every
     * checkpointEvery-th trial (the shard end is implicit in the
     * metrics).
     */
    std::vector<ShardCheckpoint> checkpoints;

    /**
     * Observability counter deltas accumulated while this shard ran
     * (obs::Registry names -> counts). Empty when observability is
     * disabled — and then omitted from the shard file, so files from
     * uninstrumented runs carry no obs members at all. Merged key-wise
     * (addition) by mergeShards().
     */
    std::map<std::string, std::uint64_t> counters;

    /**
     * Observability histogram deltas (sparse bucket counts) captured
     * the same way as `counters` and with the same invariants: empty
     * (and omitted from the file) when observability is disabled;
     * merged bucket-wise by mergeShards(), bit-identical for any shard
     * partition or merge order.
     */
    std::map<std::string, obs::HistogramSnapshot> histograms;

    /**
     * Incident forensics rollup (downtime attribution by root cause)
     * folded from this shard's trace by the incident engine. Same
     * contract as `counters`/`histograms`: empty — and omitted from
     * the shard file — when observability is off; merged exactly
     * (ExactSum) by mergeShards(), bit-identical for any shard
     * partition or merge order.
     */
    obs::IncidentAggregate incidents;

    /** Build id of the producing binary (git describe). */
    std::string build;
    /** Wall-clock time (informational, not merged; 0 in checkpoints). */
    double wallSeconds = 0.0;
};

/** Execution knobs for one shard run. */
struct ShardOptions
{
    /** Worker threads (0 = shared hardware-sized pool). */
    int threads = 0;
    /**
     * Record a checkpoint every this many trials (0 = shard end
     * only). Cadence 1 reproduces the single-machine early-stop rule
     * exactly; coarser cadences trade file size for stop granularity.
     */
    std::uint64_t checkpointEvery = 0;
    /**
     * Trials per batched-kernel lane batch (0 = scalar per-trial
     * path). Routes the shard through campaign/batch_kernel; shard
     * files stay byte-identical for any batch size.
     */
    std::uint64_t batch = 0;
};

/**
 * Run one shard of the standard scenario campaign: the in-order
 * campaign driver over GLOBAL trials [spec.lo, spec.hi), with no stop
 * rule and the prefix-checkpoint cadence, under the obs-delta bracket.
 * Trial t draws from the same Rng::stream(seed, t) as an unsharded
 * run, so the shard aggregates are bit-identical for any thread count
 * and batch size. Shards never stop early — the stop rule is the
 * merging coordinator's call. (Defined beside that driver, in
 * annual_campaign.cc.)
 */
ShardResult runAnnualShard(const AnnualCampaignSpec &scenario,
                           const ShardSpec &spec,
                           const ShardOptions &opts = {});

/**
 * Write the self-describing shard aggregate file (schema v2): exact
 * metric state (ExactSum limbs, t-digest centroids AND unflushed
 * buffer), prefix checkpoints, and the obs members when non-empty.
 */
void writeShardJson(std::ostream &os, const ShardResult &shard);

/**
 * Parse a shard aggregate file. Returns nullopt (with a reason in
 * @p error) on schema mismatch or ANY malformed input — missing or
 * mistyped members, bad bucket keys, inconsistent counts, truncation —
 * rather than asserting or throwing, so a coordinator or the what-if
 * server can reject foreign or corrupt files gracefully.
 */
std::optional<ShardResult> readShardJson(const std::string &text,
                                         std::string *error = nullptr);

/** readShardJson over the contents of @p path. */
std::optional<ShardResult> readShardFile(const std::string &path,
                                         std::string *error = nullptr);

/**
 * Replay the early-stop rule over the merged in-order prefix of
 * @p shards (which must be sorted, contiguous from trial 0). The rule
 * is evaluated at every recorded checkpoint boundary and every shard
 * end; with checkpointEvery == 1 this is exactly the single-machine
 * rule (EarlyStopRule::evaluate decides both), and the decision is
 * bit-identical for any sharding of the same campaign whose checkpoint
 * boundaries align.
 */
EarlyStopDecision evaluateEarlyStop(const std::vector<ShardResult> &shards,
                                    const EarlyStopRule &rule);

/** Merged aggregates of a complete campaign (trials == N). */
struct MergedCampaign : TrialAggregate
{
    std::uint64_t seed = 0;
    std::uint64_t shardCount = 0;

    /** Loss-free fraction with its Wilson interval. */
    BinomialCi lossFree;

    /** Key-wise sum of every shard's observability counters. */
    std::map<std::string, std::uint64_t> counters;

    /** Bucket-wise sum of every shard's observability histograms. */
    std::map<std::string, obs::HistogramSnapshot> histograms;

    /** Exact merge of every shard's incident forensics rollup. */
    obs::IncidentAggregate incidents;

    /** Stop-rule replay (all-zero when no rule was supplied). */
    EarlyStopDecision earlyStop;
};

/**
 * Merge shard results into campaign aggregates. Shards are sorted by
 * trial range and validated: same seed, same campaign size, and
 * exactly contiguous coverage of [0, campaignTrials) — gaps, overlaps
 * and foreign shards yield nullopt with a reason in @p error. When
 * @p rule is non-null, the early-stop replay runs over the merged
 * prefix (see evaluateEarlyStop).
 */
std::optional<MergedCampaign>
mergeShards(std::vector<ShardResult> shards,
            const EarlyStopRule *rule = nullptr,
            std::string *error = nullptr);

/** JSON export of the merged campaign (one object). */
void writeMergedJson(std::ostream &os, const MergedCampaign &m);

} // namespace bpsim

#endif // BPSIM_CAMPAIGN_SHARD_HH
