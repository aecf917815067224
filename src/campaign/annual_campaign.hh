/**
 * @file
 * Year-scale Monte Carlo campaigns: fan independent simulated years
 * (scenario × per-trial seed) across the work-stealing pool, with
 * online aggregation (ExactSum moments and t-digest quantiles per
 * metric, Wilson interval on the loss-free-year fraction), an optional
 * confidence-interval early-stop rule, progress callbacks, and
 * JSON/CSV export.
 *
 * The trial/seed model: trial t draws its randomness from
 * `Rng::stream(seed, t)` — a pure function of (campaign seed, trial
 * id) — and builds its own Simulator/PowerHierarchy/Cluster, so no
 * mutable state crosses threads and the aggregated results are
 * bit-identical for any thread count (see docs/CAMPAIGN.md).
 *
 * One in-order driver runs every campaign shape: a fresh campaign, a
 * resumed one (campaign/checkpoint.hh) and a shard
 * (campaign/shard.hh) each run a global trial range [lo, hi) on top of
 * a TrialAggregate, and scalar vs batched execution is only where the
 * trial results come from.
 */

#ifndef BPSIM_CAMPAIGN_ANNUAL_CAMPAIGN_HH
#define BPSIM_CAMPAIGN_ANNUAL_CAMPAIGN_HH

#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/online_stats.hh"
#include "campaign/runner.hh"
#include "core/annual.hh"
#include "obs/histogram.hh"
#include "obs/incident.hh"

namespace bpsim
{

/** Snapshot handed to progress callbacks (in trial order). */
struct CampaignProgress
{
    /** Trials aggregated so far. */
    std::uint64_t consumed = 0;
    /** Planned campaign size. */
    std::uint64_t total = 0;
    /** True when the early-stop rule has fired. */
    bool stopped = false;
};

/** The scenario one annual campaign holds fixed across its trials. */
struct AnnualCampaignSpec
{
    WorkloadProfile profile;
    int nServers = 8;
    TechniqueSpec technique;
    BackupConfigSpec config;
};

/** Where the early-stop rule fires (or would have). */
struct EarlyStopDecision
{
    /** True when the rule held at the evaluated prefix. */
    bool fired = false;
    /** Trials in the evaluated prefix (the stop point when fired). */
    std::uint64_t stopTrial = 0;
    /** CI half-width and mean at that prefix. */
    double halfWidth = 0.0;
    double mean = 0.0;
};

/**
 * The campaign early-stop rule on E[downtime min/yr]: after at least
 * minTrials, stop once the CI half-width is <= max(ciAbsTolMin,
 * ciRelTol * |mean|). Disabled while both tolerances are 0.
 */
struct EarlyStopRule
{
    std::uint64_t minTrials = 64;
    double ciRelTol = 0.0;
    double ciAbsTolMin = 0.0;
    double ciZ = 1.96;

    bool
    enabled() const
    {
        return ciRelTol > 0.0 || ciAbsTolMin > 0.0;
    }

    /**
     * The rule on the first @p n trials, whose exact downtime sums are
     * @p sum and @p sum_sq. The live campaign and the shard
     * coordinator's replay both decide here, so they stop at the same
     * trial. Unfired (all-zero) when disabled or n < minTrials.
     */
    EarlyStopDecision evaluate(std::uint64_t n, const ExactSum &sum,
                               const ExactSum &sum_sq) const;
};

/** Campaign sizing, seeding, and early-stop knobs. */
struct AnnualCampaignOptions
{
    /** Trial budget (upper bound when early stop is enabled). */
    std::uint64_t maxTrials = 200;
    /** Campaign seed; trial t uses Rng::stream(seed, t). */
    std::uint64_t seed = 1;
    /** Worker threads (0 = shared hardware-sized pool). */
    int threads = 0;

    /**
     * @name Early stop
     * The EarlyStopRule fields (see stopRule()). The rule is evaluated
     * on the in-order trial prefix, so the stopping point is identical
     * for every thread count.
     */
    ///@{
    std::uint64_t minTrials = 64;
    double ciRelTol = 0.0;
    double ciAbsTolMin = 0.0;
    double ciZ = 1.96;
    ///@}

    /** Progress callback cadence in trials (0 = no callbacks). */
    std::uint64_t progressEvery = 0;
    std::function<void(const CampaignProgress &)> progress;

    /**
     * Trials per batched-kernel lane batch (0 = scalar per-trial
     * path). Any nonzero batch routes scenario campaigns through
     * campaign/batch_kernel; results are bit-identical to the scalar
     * path for every batch size and thread count, so this is purely a
     * throughput knob. Ignored by the custom-trial-body overload.
     */
    std::uint64_t batch = 0;

    EarlyStopRule
    stopRule() const
    {
        return {minTrials, ciRelTol, ciAbsTolMin, ciZ};
    }
};

/**
 * The mergeable aggregates of an in-order run of trials — the state a
 * campaign summary, a shard, a checkpoint and a merged campaign share.
 */
struct TrialAggregate
{
    /** Trials folded in. */
    std::uint64_t trials = 0;

    /** @name Per-metric aggregates (in trial order) */
    ///@{
    MergingMetric downtimeMin;
    MergingMetric lossesPerYear;
    MergingMetric meanPerf;
    MergingMetric batteryKwh;
    MergingMetric worstGapMin;
    ///@}

    /** Trials with zero abrupt power-loss events. */
    std::uint64_t lossFreeTrials = 0;

    /** Fold in the next trial (the one per-trial aggregator). */
    void add(const AnnualResult &r);
    /** Fold in the aggregates of a following trial range. */
    void merge(const TrialAggregate &other);
};

/** The five metrics with their export names, in export order. */
inline constexpr std::pair<const char *, MergingMetric TrialAggregate::*>
    kTrialMetrics[] = {{"downtime_min", &TrialAggregate::downtimeMin},
                       {"losses_per_year", &TrialAggregate::lossesPerYear},
                       {"mean_perf", &TrialAggregate::meanPerf},
                       {"battery_kwh", &TrialAggregate::batteryKwh},
                       {"worst_gap_min", &TrialAggregate::worstGapMin}};

/** Aggregates of one annual campaign. */
struct AnnualCampaignSummary : TrialAggregate
{
    /** Trial budget the campaign was launched with. */
    std::uint64_t planned = 0;
    /** Campaign seed (provenance: trial t used Rng::stream(seed, t)). */
    std::uint64_t seed = 0;
    /** True when the CI rule stopped the campaign early. */
    bool stoppedEarly = false;

    /** Loss-free fraction with its Wilson interval. */
    BinomialCi lossFree;

    /** @name Wall-clock throughput (not part of the deterministic state) */
    ///@{
    double wallSeconds = 0.0;
    double trialsPerSec = 0.0;
    ///@}
};

/**
 * A custom trial body: simulate year @p trial_id using only @p rng
 * for randomness and return its result. Must not touch shared
 * mutable state.
 */
using AnnualTrialFn =
    std::function<AnnualResult(std::uint64_t trial_id, Rng &rng)>;

/** Run a campaign with a custom per-trial body. */
AnnualCampaignSummary runAnnualCampaign(const AnnualTrialFn &trial,
                                        const AnnualCampaignOptions &opts);

/**
 * Run the standard campaign: each trial draws a Figure 1 outage trace
 * for one year and runs it against the spec's cluster, backup
 * configuration, and standing technique.
 */
AnnualCampaignSummary runAnnualCampaign(const AnnualCampaignSpec &spec,
                                        const AnnualCampaignOptions &opts);

/** Export knobs for writeCampaignJson(). */
struct CampaignJsonOptions
{
    /**
     * Emit the wall-clock fields (wall_seconds, trials_per_sec).
     * Disable for deterministic exports: without them the document is
     * a pure function of (spec, seed, trial count, buildId), which is
     * what lets the what-if server cache responses and still promise
     * byte-identical replies across runs (see docs/SERVICE.md).
     */
    bool includeTiming = true;
};

/** The obs activity one bracketed run recorded (see withObsDeltas()). */
struct ObsEvidence
{
    /** Counter deltas of the process-wide registry. */
    std::map<std::string, std::uint64_t> counters;
    /** Histogram (bucket) deltas of the process-wide registry. */
    std::map<std::string, obs::HistogramSnapshot> histograms;
    /** Trace events emitted during the run, sorted by (trial, seq). */
    std::vector<obs::TraceEvent> events;
    /** The incident engine's report over those events. */
    obs::IncidentReport incidents;
};

/**
 * Run @p run and return the obs evidence it recorded: registry
 * counter and histogram deltas by snapshot subtraction, and the trace
 * events since a bookmark with their incident report. Non-consuming:
 * the events and samples stay in their sinks for the caller's own
 * drain()-based export. The deltas cover everything the process
 * recorded meanwhile, so no other campaign may run concurrently.
 */
ObsEvidence withObsDeltas(const std::function<void()> &run);

/** JSON export (one object; campaign + per-metric stats). */
void writeCampaignJson(std::ostream &os, const AnnualCampaignSummary &s,
                       const CampaignJsonOptions &opts = {});

/** CSV export: one `metric,count,mean,...` row per metric. */
void writeCampaignCsv(std::ostream &os, const AnnualCampaignSummary &s);

/**
 * Emit one metric as a JSON object member: count, mean, stddev, min,
 * max, p50, p95, p99. Campaign, merged and bench exports all use it.
 */
class JsonWriter;
void writeMetricJson(JsonWriter &w, const std::string &name,
                     const MergingMetric &m);

/** The five per-metric objects and the loss_free object of an export. */
void writeAggregateJson(JsonWriter &w, const TrialAggregate &a,
                        const BinomialCi &loss_free);

} // namespace bpsim

#endif // BPSIM_CAMPAIGN_ANNUAL_CAMPAIGN_HH
