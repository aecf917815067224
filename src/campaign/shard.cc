#include "campaign/shard.hh"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "campaign/json.hh"
#include "obs/obs.hh"
#include "sim/logging.hh"

namespace bpsim
{

namespace
{

/** Set @p error (when wired) and return false: validation helper. */
bool
failMerge(std::string *error, std::string why)
{
    if (error)
        *error = std::move(why);
    return false;
}

/**
 * Emit the optional obs members: "counters" (name -> count),
 * "histograms" (name -> sparse bucket map) and "incidents". Each is
 * omitted entirely when empty, so files from uninstrumented runs carry
 * no obs members at all.
 */
void
writeObsJson(JsonWriter &w,
             const std::map<std::string, std::uint64_t> &counters,
             const std::map<std::string, obs::HistogramSnapshot> &histograms,
             const obs::IncidentAggregate &incidents)
{
    if (!counters.empty()) {
        w.key("counters").beginObject();
        for (const auto &[name, v] : counters)
            w.field(name, v);
        w.endObject();
    }
    if (!histograms.empty()) {
        w.key("histograms").beginObject();
        for (const auto &[name, h] : histograms) {
            w.key(name).beginObject();
            w.key("buckets").beginObject();
            for (const auto &[i, c] : h.buckets)
                w.field(std::to_string(i), c);
            w.endObject();
            w.endObject();
        }
        w.endObject();
    }
    if (!incidents.empty()) {
        w.key("incidents");
        incidents.writeJson(w);
    }
}

/** Digits-only bucket-index parse (no exceptions, no sign, no 0x). */
bool
parseBucketIndex(const std::string &s, std::uint32_t &out)
{
    if (s.empty() || s.size() > 9)
        return false;
    std::uint32_t v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<std::uint32_t>(c - '0');
    }
    out = v;
    return true;
}

/** The body of readShardJson, reporting the first defect found. */
bool
readShard(const JsonValue &doc, ShardResult &out, std::string *error)
{
    const auto bad = [error](const std::string &what) {
        return failMerge(error, "missing or malformed " + what);
    };
    std::string schema;
    if (!jsonString(doc, "schema", schema) || schema != kShardSchemaName)
        return failMerge(error,
                         "not a campaign shard file (schema mismatch)");
    std::uint64_t version = 0;
    if (!jsonUint(doc, "schema_version", version) ||
        version != kShardSchemaVersion)
        return failMerge(error,
                         formatString("unsupported shard schema version "
                                      "(want %d)",
                                      kShardSchemaVersion));

    ShardSpec &spec = out.spec;
    const std::pair<const char *, std::uint64_t *> counts[] = {
        {"seed", &spec.seed},
        {"campaign_trials", &spec.campaignTrials},
        {"trial_lo", &spec.lo},
        {"trial_hi", &spec.hi},
        {"shard_index", &spec.shardIndex},
        {"shard_count", &spec.shardCount},
        {"trials", &out.trials},
        {"loss_free_trials", &out.lossFreeTrials}};
    for (const auto &[key, into] : counts)
        if (!jsonUint(doc, key, *into))
            return bad(std::string("\"") + key + "\"");
    if (!jsonString(doc, "build", out.build))
        return bad("\"build\"");
    if (!jsonNumber(doc, "wall_seconds", out.wallSeconds))
        return bad("\"wall_seconds\"");
    if (spec.lo >= spec.hi || spec.hi > spec.campaignTrials ||
        spec.shardIndex >= spec.shardCount ||
        out.trials != spec.width() || out.lossFreeTrials > out.trials)
        return failMerge(error, "inconsistent trial range or counts");

    const JsonValue *metrics = doc.find("metrics");
    if (!metrics || metrics->kind() != JsonValue::Kind::Object)
        return bad("\"metrics\"");
    for (const auto &[name, field] : kTrialMetrics) {
        const JsonValue *m = metrics->find(name);
        auto metric = m ? MergingMetric::fromJson(*m) : std::nullopt;
        if (!metric || metric->count() != out.trials)
            return bad(std::string("metric \"") + name + "\"");
        out.*field = std::move(*metric);
    }

    const JsonValue *cps = doc.find("checkpoints");
    if (!cps || cps->kind() != JsonValue::Kind::Array)
        return bad("\"checkpoints\"");
    for (std::size_t i = 0; i < cps->size(); ++i) {
        const JsonValue &c = cps->item(i);
        ShardCheckpoint cp;
        const JsonValue *sum = c.find("sum");
        const JsonValue *sum_sq = c.find("sum_sq");
        auto s = sum ? ExactSum::fromJson(*sum) : std::nullopt;
        auto sq = sum_sq ? ExactSum::fromJson(*sum_sq) : std::nullopt;
        if (!jsonUint(c, "trials", cp.trials) || cp.trials > out.trials ||
            !s || !sq)
            return bad("checkpoint");
        cp.sum = *s;
        cp.sumSq = *sq;
        out.checkpoints.push_back(std::move(cp));
    }

    if (const JsonValue *cs = doc.find("counters")) {
        if (cs->kind() != JsonValue::Kind::Object)
            return bad("\"counters\"");
        for (std::size_t i = 0; i < cs->size(); ++i) {
            const auto &[name, v] = cs->member(i);
            if (!v.isUint())
                return bad("counter \"" + name + "\"");
            out.counters[name] = v.asUint();
        }
    }
    if (const JsonValue *hs = doc.find("histograms")) {
        if (hs->kind() != JsonValue::Kind::Object)
            return bad("\"histograms\"");
        for (std::size_t i = 0; i < hs->size(); ++i) {
            const auto &[name, h] = hs->member(i);
            const JsonValue *buckets = h.find("buckets");
            if (!buckets || buckets->kind() != JsonValue::Kind::Object)
                return bad("histogram \"" + name + "\"");
            obs::HistogramSnapshot snap;
            for (std::size_t j = 0; j < buckets->size(); ++j) {
                const auto &[idx, c] = buckets->member(j);
                std::uint32_t bucket = 0;
                if (!parseBucketIndex(idx, bucket) || !c.isUint())
                    return bad("histogram \"" + name + "\" bucket");
                snap.buckets[bucket] = c.asUint();
            }
            out.histograms[name] = std::move(snap);
        }
    }
    if (const JsonValue *inc = doc.find("incidents")) {
        auto incidents = obs::IncidentAggregate::fromJson(*inc);
        if (!incidents)
            return bad("\"incidents\"");
        out.incidents = std::move(*incidents);
    }
    return true;
}

} // namespace

ShardSpec
shardOf(std::uint64_t seed, std::uint64_t trials, std::uint64_t index,
        std::uint64_t count)
{
    BPSIM_ASSERT(count >= 1 && index < count,
                 "shard %llu of %llu is not a valid partition slot",
                 static_cast<unsigned long long>(index),
                 static_cast<unsigned long long>(count));
    BPSIM_ASSERT(trials >= 1, "cannot shard an empty campaign");
    const std::uint64_t base = trials / count;
    const std::uint64_t extra = trials % count;
    ShardSpec spec;
    spec.seed = seed;
    spec.campaignTrials = trials;
    spec.shardIndex = index;
    spec.shardCount = count;
    // The first `extra` shards take base+1 trials.
    spec.lo = index * base + std::min(index, extra);
    spec.hi = spec.lo + base + (index < extra ? 1 : 0);
    return spec;
}

void
writeShardJson(std::ostream &os, const ShardResult &shard)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", kShardSchemaName);
    w.field("schema_version", kShardSchemaVersion);
    w.field("seed", shard.spec.seed);
    w.field("campaign_trials", shard.spec.campaignTrials);
    w.field("trial_lo", shard.spec.lo);
    w.field("trial_hi", shard.spec.hi);
    w.field("shard_index", shard.spec.shardIndex);
    w.field("shard_count", shard.spec.shardCount);
    w.field("build", shard.build);
    w.field("wall_seconds", shard.wallSeconds);
    w.field("trials", shard.trials);
    w.field("loss_free_trials", shard.lossFreeTrials);
    w.key("metrics").beginObject();
    for (const auto &[name, metric] : kTrialMetrics) {
        w.key(name);
        (shard.*metric).writeJson(w);
    }
    w.endObject();
    w.key("checkpoints").beginArray();
    for (const auto &c : shard.checkpoints) {
        w.beginObject();
        w.field("trials", c.trials);
        w.key("sum");
        c.sum.writeJson(w);
        w.key("sum_sq");
        c.sumSq.writeJson(w);
        w.endObject();
    }
    w.endArray();
    writeObsJson(w, shard.counters, shard.histograms, shard.incidents);
    w.endObject();
    os << '\n';
}

std::optional<ShardResult>
readShardJson(const std::string &text, std::string *error)
{
    const auto doc = parseJson(text, error);
    if (!doc)
        return std::nullopt;
    ShardResult out;
    if (!readShard(*doc, out, error))
        return std::nullopt;
    return out;
}

std::optional<ShardResult>
readShardFile(const std::string &path, std::string *error)
{
    std::ifstream is(path);
    if (!is) {
        failMerge(error, "cannot open " + path);
        return std::nullopt;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    std::string err;
    auto out = readShardJson(ss.str(), &err);
    if (!out)
        failMerge(error, path + ": " + err);
    return out;
}

EarlyStopDecision
evaluateEarlyStop(const std::vector<ShardResult> &shards,
                  const EarlyStopRule &rule)
{
    if (!rule.enabled())
        return {};
    // Exact running prefix over fully merged earlier shards.
    std::uint64_t prefix_n = 0;
    ExactSum prefix_sum, prefix_sq;
    const auto at = [&](std::uint64_t trials, const ExactSum &sum,
                        const ExactSum &sum_sq) {
        ExactSum s = prefix_sum;
        s.merge(sum);
        ExactSum sq = prefix_sq;
        sq.merge(sum_sq);
        return rule.evaluate(prefix_n + trials, s, sq);
    };
    for (const auto &s : shards) {
        for (const auto &c : s.checkpoints)
            if (const auto d = at(c.trials, c.sum, c.sumSq); d.fired)
                return d;
        const MergingMetric &down = s.downtimeMin;
        if (const auto d = at(s.trials, down.sum(), down.sumSq()); d.fired)
            return d;
        prefix_n += s.trials;
        prefix_sum.merge(down.sum());
        prefix_sq.merge(down.sumSq());
    }
    return {};
}

std::optional<MergedCampaign>
mergeShards(std::vector<ShardResult> shards, const EarlyStopRule *rule,
            std::string *error)
{
    if (shards.empty()) {
        failMerge(error, "no shards to merge");
        return std::nullopt;
    }
    std::sort(shards.begin(), shards.end(),
              [](const ShardResult &a, const ShardResult &b) {
                  return a.spec.lo < b.spec.lo;
              });

    const std::uint64_t seed = shards.front().spec.seed;
    const std::uint64_t total = shards.front().spec.campaignTrials;
    std::uint64_t next = 0;
    for (const auto &s : shards) {
        if (s.spec.seed != seed) {
            failMerge(error,
                      formatString("seed mismatch: shard [%llu, %llu) "
                                   "has seed %llu, expected %llu",
                                   static_cast<unsigned long long>(
                                       s.spec.lo),
                                   static_cast<unsigned long long>(
                                       s.spec.hi),
                                   static_cast<unsigned long long>(
                                       s.spec.seed),
                                   static_cast<unsigned long long>(
                                       seed)));
            return std::nullopt;
        }
        if (s.spec.campaignTrials != total) {
            failMerge(error, "campaign size mismatch between shards");
            return std::nullopt;
        }
        if (s.spec.lo != next || s.spec.hi <= s.spec.lo) {
            failMerge(error,
                      formatString("shard ranges are not contiguous at "
                                   "trial %llu (next shard covers "
                                   "[%llu, %llu))",
                                   static_cast<unsigned long long>(next),
                                   static_cast<unsigned long long>(
                                       s.spec.lo),
                                   static_cast<unsigned long long>(
                                       s.spec.hi)));
            return std::nullopt;
        }
        if (s.trials != s.spec.width() ||
            s.downtimeMin.count() != s.trials) {
            failMerge(error,
                      formatString("shard [%llu, %llu) is incomplete",
                                   static_cast<unsigned long long>(
                                       s.spec.lo),
                                   static_cast<unsigned long long>(
                                       s.spec.hi)));
            return std::nullopt;
        }
        next = s.spec.hi;
    }
    if (next != total) {
        failMerge(error,
                  formatString("shards cover only [0, %llu) of a "
                               "%llu-trial campaign",
                               static_cast<unsigned long long>(next),
                               static_cast<unsigned long long>(total)));
        return std::nullopt;
    }

    MergedCampaign m;
    m.seed = seed;
    m.shardCount = shards.size();
    for (const auto &s : shards) {
        m.merge(s);
        obs::mergeCounters(m.counters, s.counters);
        obs::mergeHistograms(m.histograms, s.histograms);
        m.incidents.merge(s.incidents);
    }
    m.lossFree = wilsonInterval(m.lossFreeTrials, m.trials,
                                rule ? rule->ciZ : 1.96);
    if (rule)
        m.earlyStop = evaluateEarlyStop(shards, *rule);
    return m;
}

void
writeMergedJson(std::ostream &os, const MergedCampaign &m)
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema", "bpsim.campaign.merged");
    w.field("schema_version", kShardSchemaVersion);
    w.field("build", buildId());
    w.field("seed", m.seed);
    w.field("trials", m.trials);
    w.field("shard_count", m.shardCount);
    writeAggregateJson(w, m, m.lossFree);
    writeObsJson(w, m.counters, m.histograms, m.incidents);
    w.key("early_stop").beginObject();
    w.field("fired", m.earlyStop.fired);
    w.field("stop_trial", m.earlyStop.stopTrial);
    w.field("half_width", m.earlyStop.halfWidth);
    w.field("mean", m.earlyStop.mean);
    w.endObject();
    w.endObject();
    os << '\n';
}

} // namespace bpsim
