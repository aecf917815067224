#include "campaign/annual_campaign.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <vector>

#include "campaign/batch_kernel.hh"
#include "campaign/checkpoint.hh"
#include "campaign/json.hh"
#include "obs/obs.hh"
#include "outage/trace.hh"
#include "sim/logging.hh"

namespace bpsim
{

namespace
{

constexpr Time kYear = 365LL * 24 * kHour;

/**
 * Where trial results come from — the only difference between the
 * scalar and batched paths. Trial t's result is a pure function of
 * (seed, t) either way, so every aggregate is identical for any batch
 * size and thread count.
 */
struct TrialSource
{
    /** Per-trial body (scalar path, when kernel is empty). */
    AnnualTrialFn trial;
    /** Lane-batch kernel (batched path). */
    std::optional<BatchAnnualKernel> kernel;
    /** Trials per chunk: the kernel's batch, or 1 on the scalar path. */
    std::uint64_t batch = 1;
};

/** The standard scenario: Figure 1 years through the scalar simulator,
 *  or through the batched kernel when @p batch is nonzero. */
TrialSource
scenarioSource(const AnnualCampaignSpec &spec, std::uint64_t batch)
{
    TrialSource src;
    if (batch != 0) {
        src.kernel.emplace(spec.profile, spec.nServers, spec.technique,
                           spec.config);
        src.batch = batch;
        return src;
    }
    src.trial = [spec, gen = OutageTraceGenerator::figure1(),
                 sim = AnnualSimulator()](std::uint64_t, Rng &rng) {
        return sim.runYear(spec.profile, spec.nServers, spec.technique,
                           spec.config, gen.generate(rng, kYear));
    };
    return src;
}

/**
 * The one in-order driver: simulate global trials [lo, hi) from
 * @p src across the pool, in chunks of src.batch trials, and fold them
 * into @p agg strictly in trial-id order. @p after(id) runs once trial
 * id is folded in and returns false to stop; trials other workers
 * finished beyond that point are discarded. Returns true when @p after
 * stopped the run.
 */
bool
runTrials(TrialAggregate &agg, const TrialSource &src, std::uint64_t seed,
          std::uint64_t lo, std::uint64_t hi, int threads,
          const std::function<bool(std::uint64_t)> &after)
{
    const std::uint64_t batch = src.batch;
    bool stopped = false;
    const std::function<std::vector<AnnualResult>(std::uint64_t)> body =
        [&](std::uint64_t chunk) {
            const std::uint64_t first = lo + chunk * batch;
            const std::uint64_t last = std::min(first + batch, hi);
            std::vector<AnnualResult> results(
                static_cast<std::size_t>(last - first));
            if (src.kernel) {
                src.kernel->runBatch(seed, first, last, results.data());
                return results;
            }
            for (std::uint64_t id = first; id < last; ++id) {
                // Tag every trace event with the GLOBAL trial id:
                // (trial, seq) is the thread-count-invariant trace
                // sort key.
                const obs::TrialScope trace_scope(id);
                Rng rng = Rng::stream(seed, id);
                results[id - first] = src.trial(id, rng);
            }
            return results;
        };
    const std::function<bool(std::uint64_t, std::vector<AnnualResult> &&)>
        consume = [&](std::uint64_t chunk,
                      std::vector<AnnualResult> &&results) {
            for (std::size_t i = 0; i < results.size(); ++i) {
                agg.add(results[i]);
                if (!after(lo + chunk * batch + i)) {
                    stopped = true;
                    return false;
                }
            }
            return true;
        };
    runCampaign<std::vector<AnnualResult>>((hi - lo + batch - 1) / batch,
                                           body, consume, {threads});
    return stopped;
}

/**
 * Run a campaign from @p agg, which already holds its first agg.trials
 * trials, through trial opts.maxTrials - 1 under the early-stop rule
 * and progress cadence, then finalize. A fresh campaign is this from
 * the empty aggregate.
 *
 * Before running anything the rule is re-evaluated on a non-empty
 * starting state: a run whose budget was exactly its stopping point
 * records stoppedEarly == false (the stop is masked at the budget
 * boundary), but a longer fresh run stops right there.
 */
AnnualCampaignSummary
continueCampaign(const TrialSource &src, const AnnualCampaignOptions &opts,
                 TrialAggregate agg)
{
    BPSIM_ASSERT(opts.maxTrials >= 1, "campaign needs at least one trial");
    BPSIM_ASSERT(agg.trials <= opts.maxTrials,
                 "resume boundary %llu beyond the %llu-trial budget",
                 static_cast<unsigned long long>(agg.trials),
                 static_cast<unsigned long long>(opts.maxTrials));
    const auto t0 = std::chrono::steady_clock::now();
    const auto run_timer = obs::scope("campaign.run");
    const EarlyStopRule rule = opts.stopRule();
    const auto stops = [&] {
        return rule
            .evaluate(agg.trials, agg.downtimeMin.sum(),
                      agg.downtimeMin.sumSq())
            .fired;
    };
    const std::uint64_t start = agg.trials;
    bool stopped = start > 0 && stops();
    if (!stopped) {
        stopped = runTrials(
            agg, src, opts.seed, start, opts.maxTrials, opts.threads,
            [&](std::uint64_t id) {
                const bool more = !stops();
                if (opts.progress && opts.progressEvery != 0 &&
                    (id + 1 == opts.maxTrials || !more ||
                     (id + 1) % opts.progressEvery == 0))
                    opts.progress({id + 1, opts.maxTrials, !more});
                return more;
            });
    }

    AnnualCampaignSummary out;
    static_cast<TrialAggregate &>(out) = std::move(agg);
    out.planned = opts.maxTrials;
    out.seed = opts.seed;
    out.stoppedEarly = stopped && out.trials < opts.maxTrials;
    out.lossFree = wilsonInterval(out.lossFreeTrials, out.trials, opts.ciZ);
    // Only this run's trials count toward throughput and the obs
    // "campaign.trials" counter, so a checkpointed run plus its
    // extension reports exactly what one fresh run would.
    const std::uint64_t executed = out.trials - start;
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - t0;
    out.wallSeconds = wall.count();
    out.trialsPerSec = out.wallSeconds > 0.0
                           ? static_cast<double>(executed) /
                                 out.wallSeconds
                           : 0.0;
    if (BPSIM_OBS_ON()) {
        obs::Registry::global().counter("campaign.trials").add(executed);
        obs::Registry::global()
            .gauge("campaign.trials_per_sec")
            .set(out.trialsPerSec);
    }
    return out;
}

/** Fold one run's obs evidence into a shard or checkpoint. */
void
mergeEvidence(ShardResult &into, const ObsEvidence &e)
{
    obs::mergeCounters(into.counters, e.counters);
    obs::mergeHistograms(into.histograms, e.histograms);
    into.incidents.merge(e.incidents.aggregate);
}

} // namespace

EarlyStopDecision
EarlyStopRule::evaluate(std::uint64_t n, const ExactSum &sum,
                        const ExactSum &sum_sq) const
{
    EarlyStopDecision d;
    if (!enabled() || n < minTrials || n == 0)
        return d;
    const double s = sum.value();
    d.stopTrial = n;
    d.mean = s / static_cast<double>(n);
    d.halfWidth = meanCiHalfWidth(n, s, sum_sq.value(), ciZ);
    d.fired =
        d.halfWidth <= std::max(ciAbsTolMin, ciRelTol * std::abs(d.mean));
    return d;
}

void
TrialAggregate::add(const AnnualResult &r)
{
    downtimeMin.add(r.downtimeMin);
    lossesPerYear.add(static_cast<double>(r.losses));
    meanPerf.add(r.meanPerf);
    batteryKwh.add(r.batteryKwh);
    worstGapMin.add(r.worstGapMin);
    // Per-trial distribution metrics (trials are folded in trial
    // order, so the bucket counts are thread-count invariant).
    BPSIM_OBS_HISTOGRAM_RECORD("campaign.trial_downtime_min",
                               r.downtimeMin);
    BPSIM_OBS_HISTOGRAM_RECORD("campaign.trial_worst_gap_min",
                               r.worstGapMin);
    if (r.losses == 0)
        ++lossFreeTrials;
    ++trials;
}

void
TrialAggregate::merge(const TrialAggregate &other)
{
    trials += other.trials;
    for (const auto &[name, metric] : kTrialMetrics)
        (this->*metric).merge(other.*metric);
    lossFreeTrials += other.lossFreeTrials;
}

ObsEvidence
withObsDeltas(const std::function<void()> &run)
{
    auto &registry = obs::Registry::global();
    const auto counters_before = registry.counterSnapshot();
    const auto histograms_before = registry.histogramSnapshot();
    const auto trace_mark = obs::TraceSink::instance().mark();
    run();
    ObsEvidence e;
    e.counters = obs::subtractCounters(registry.counterSnapshot(),
                                       counters_before);
    e.histograms = obs::subtractHistograms(registry.histogramSnapshot(),
                                           histograms_before);
    if (obs::enabled()) {
        e.events = obs::TraceSink::instance().eventsSince(trace_mark);
        e.incidents = obs::buildIncidentReport(e.events);
    }
    return e;
}

AnnualCampaignSummary
runAnnualCampaign(const AnnualTrialFn &trial,
                  const AnnualCampaignOptions &opts)
{
    TrialSource src;
    src.trial = trial;
    return continueCampaign(src, opts, {});
}

AnnualCampaignSummary
runAnnualCampaign(const AnnualCampaignSpec &spec,
                  const AnnualCampaignOptions &opts)
{
    return continueCampaign(scenarioSource(spec, opts.batch), opts, {});
}

ResumableOutcome
runResumableCampaign(const AnnualCampaignSpec &spec,
                     const AnnualCampaignOptions &opts,
                     const CampaignCheckpoint *from)
{
    BPSIM_ASSERT(!from || from->spec.seed == opts.seed,
                 "resume seed %llu does not match campaign seed %llu",
                 static_cast<unsigned long long>(from->spec.seed),
                 static_cast<unsigned long long>(opts.seed));
    ResumableOutcome out;
    CampaignCheckpoint &ckpt = out.checkpoint;
    if (from)
        ckpt = *from;
    const std::uint64_t start = ckpt.trials;
    out.evidence = withObsDeltas([&] {
        out.summary =
            continueCampaign(scenarioSource(spec, opts.batch), opts, ckpt);
    });
    mergeEvidence(ckpt, out.evidence);
    static_cast<TrialAggregate &>(ckpt) = out.summary;
    ckpt.spec = shardOf(opts.seed, ckpt.trials, 0, 1);
    ckpt.build = buildId();
    ckpt.wallSeconds = 0.0;
    out.executedTrials = ckpt.trials - start;
    return out;
}

ShardResult
runAnnualShard(const AnnualCampaignSpec &scenario, const ShardSpec &spec,
               const ShardOptions &opts)
{
    BPSIM_ASSERT(spec.hi > spec.lo && spec.hi <= spec.campaignTrials,
                 "shard range [%llu, %llu) invalid for a %llu-trial "
                 "campaign",
                 static_cast<unsigned long long>(spec.lo),
                 static_cast<unsigned long long>(spec.hi),
                 static_cast<unsigned long long>(spec.campaignTrials));
    const auto t0 = std::chrono::steady_clock::now();
    ShardResult out;
    out.spec = spec;
    out.build = buildId();
    const ObsEvidence evidence = withObsDeltas([&] {
        // Shards never stop early: the stop rule is the merging
        // coordinator's call, replayed from these prefix checkpoints.
        runTrials(out, scenarioSource(scenario, opts.batch), spec.seed,
                  spec.lo, spec.hi, opts.threads,
                  [&](std::uint64_t) {
                      if (opts.checkpointEvery != 0 &&
                          out.trials % opts.checkpointEvery == 0)
                          out.checkpoints.push_back(
                              {out.trials, out.downtimeMin.sum(),
                               out.downtimeMin.sumSq()});
                      return true;
                  });
    });
    mergeEvidence(out, evidence);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - t0;
    out.wallSeconds = wall.count();
    return out;
}

void
writeMetricJson(JsonWriter &w, const std::string &name,
                const MergingMetric &m)
{
    w.key(name).beginObject();
    w.field("count", m.count());
    w.field("mean", m.mean());
    w.field("stddev", m.stddev());
    w.field("min", m.min());
    w.field("max", m.max());
    w.field("p50", m.p50());
    w.field("p95", m.p95());
    w.field("p99", m.p99());
    w.endObject();
}

void
writeAggregateJson(JsonWriter &w, const TrialAggregate &a,
                   const BinomialCi &loss_free)
{
    for (const auto &[name, metric] : kTrialMetrics)
        writeMetricJson(w, name, a.*metric);
    w.key("loss_free").beginObject();
    w.field("trials", a.lossFreeTrials);
    w.field("fraction", loss_free.fraction);
    w.field("ci_lo", loss_free.lo);
    w.field("ci_hi", loss_free.hi);
    w.endObject();
}

void
writeCampaignJson(std::ostream &os, const AnnualCampaignSummary &s,
                  const CampaignJsonOptions &opts)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("build", buildId());
    w.field("seed", s.seed);
    w.field("trials", s.trials);
    w.field("planned", s.planned);
    w.field("stopped_early", s.stoppedEarly);
    if (opts.includeTiming) {
        w.field("wall_seconds", s.wallSeconds);
        w.field("trials_per_sec", s.trialsPerSec);
    }
    writeAggregateJson(w, s, s.lossFree);
    w.endObject();
    os << '\n';
}

void
writeCampaignCsv(std::ostream &os, const AnnualCampaignSummary &s)
{
    os << "metric,count,mean,stddev,min,max,p50,p95,p99\n";
    for (const auto &[name, metric] : kTrialMetrics) {
        const MergingMetric &m = s.*metric;
        os << name << ',' << m.count() << ',' << m.mean() << ','
           << m.stddev() << ',' << m.min() << ',' << m.max() << ','
           << m.p50() << ',' << m.p95() << ',' << m.p99() << '\n';
    }
    os << "loss_free_fraction," << s.trials << ',' << s.lossFree.fraction
       << ",,," << s.lossFree.lo << ',' << s.lossFree.hi << ",,\n";
}

} // namespace bpsim
