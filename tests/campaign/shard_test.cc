/**
 * @file
 * Tests for the distributed sharding layer: the acceptance gate is
 * that merging 1, 2, 7 or 16 shard runs of the same campaign yields
 * bit-identical counts, means, CIs and Wilson intervals, quantiles
 * within the t-digest rank-error budget, an identical early-stop
 * replay, and a byte-stable on-disk format (golden fixture). The one
 * shard reader — shard files and campaign checkpoints alike — must
 * turn every mutated document into nullopt with a reason, never an
 * abort.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/annual_campaign.hh"
#include "campaign/checkpoint.hh"
#include "campaign/json.hh"
#include "campaign/shard.hh"
#include "core/backup_config.hh"
#include "obs/obs.hh"
#include "sim/logging.hh"
#include "workload/profile.hh"

namespace bpsim
{
namespace
{

/** Same cheap scenario campaign_test.cc uses. */
AnnualCampaignSpec
testSpec()
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = 4;
    spec.technique = {TechniqueKind::Throttle, 5, 0, 0, false};
    spec.config = noDgConfig();
    return spec;
}

constexpr std::uint64_t kSeed = 99;
constexpr std::uint64_t kTrials = 64;

/** Run the test campaign as @p count shards and merge. */
MergedCampaign
runSharded(std::uint64_t count, std::uint64_t checkpoint_every = 0,
           const EarlyStopRule *rule = nullptr)
{
    std::vector<ShardResult> shards;
    ShardOptions opts;
    opts.checkpointEvery = checkpoint_every;
    for (std::uint64_t i = 0; i < count; ++i)
        shards.push_back(runAnnualShard(
            testSpec(), shardOf(kSeed, kTrials, i, count), opts));
    // Merge in reverse order: the result must not care.
    std::reverse(shards.begin(), shards.end());
    std::string err;
    const auto merged = mergeShards(std::move(shards), rule, &err);
    EXPECT_TRUE(merged.has_value()) << err;
    return *merged;
}

/** Every merged field that must be bitwise shard-count invariant. */
std::vector<double>
fingerprint(const MergedCampaign &m)
{
    std::vector<double> f;
    f.push_back(static_cast<double>(m.trials));
    f.push_back(static_cast<double>(m.lossFreeTrials));
    for (const MergingMetric *metric :
         {&m.downtimeMin, &m.lossesPerYear, &m.meanPerf, &m.batteryKwh,
          &m.worstGapMin}) {
        f.push_back(static_cast<double>(metric->count()));
        f.push_back(metric->mean());
        f.push_back(metric->variance());
        f.push_back(metric->meanCiHalfWidth());
        f.push_back(metric->min());
        f.push_back(metric->max());
    }
    f.push_back(m.lossFree.fraction);
    f.push_back(m.lossFree.lo);
    f.push_back(m.lossFree.hi);
    return f;
}

TEST(ShardSpec, BalancedContiguousPartition)
{
    for (const std::uint64_t count : {1u, 2u, 7u, 16u, 63u, 64u}) {
        std::uint64_t next = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            const ShardSpec s = shardOf(kSeed, kTrials, i, count);
            EXPECT_EQ(s.lo, next);
            EXPECT_GE(s.width(), kTrials / count);
            EXPECT_LE(s.width(), kTrials / count + 1);
            EXPECT_EQ(s.seed, kSeed);
            EXPECT_EQ(s.campaignTrials, kTrials);
            EXPECT_EQ(s.shardIndex, i);
            EXPECT_EQ(s.shardCount, count);
            next = s.hi;
        }
        EXPECT_EQ(next, kTrials);
    }
}

TEST(ShardMerge, BitIdenticalForAnyShardCount)
{
    const auto baseline = fingerprint(runSharded(1));
    ASSERT_FALSE(baseline.empty());
    EXPECT_GT(baseline[0], 0.0);
    for (const std::uint64_t count : {2u, 7u, 16u}) {
        const auto f = fingerprint(runSharded(count));
        ASSERT_EQ(f.size(), baseline.size());
        for (std::size_t i = 0; i < f.size(); ++i)
            EXPECT_EQ(f[i], baseline[i])
                << "field " << i << " differs at " << count << " shards";
    }
}

TEST(ShardMerge, QuantilesWithinDigestToleranceOfExact)
{
    // Width-1 shards expose the exact per-trial downtime values
    // (each singleton's mean IS the trial's observation).
    std::vector<double> exact;
    for (std::uint64_t i = 0; i < kTrials; ++i) {
        const auto s =
            runAnnualShard(testSpec(), shardOf(kSeed, kTrials, i, kTrials));
        EXPECT_EQ(s.trials, 1u);
        exact.push_back(s.downtimeMin.mean());
    }
    std::sort(exact.begin(), exact.end());

    for (const std::uint64_t count : {1u, 16u}) {
        const MergedCampaign m = runSharded(count);
        for (const double q : {0.50, 0.95, 0.99}) {
            const double est = m.downtimeMin.quantile(q);
            // Empirical rank of the estimate (mid-rank for ties).
            const double lo = static_cast<double>(
                std::lower_bound(exact.begin(), exact.end(), est) -
                exact.begin());
            const double hi = static_cast<double>(
                std::upper_bound(exact.begin(), exact.end(), est) -
                exact.begin());
            const double rank =
                0.5 * (lo + hi) / static_cast<double>(exact.size());
            // n=64 with delta=100 keeps every point its own centroid,
            // so rank error is dominated by interpolation: allow one
            // rank position either way.
            EXPECT_NEAR(rank, q, 1.5 / static_cast<double>(kTrials))
                << "q=" << q << " at " << count << " shards";
        }
        EXPECT_EQ(m.downtimeMin.quantile(0.0), exact.front());
        EXPECT_EQ(m.downtimeMin.quantile(1.0), exact.back());
    }
}

TEST(ShardMerge, EarlyStopReplayIsShardCountInvariant)
{
    EarlyStopRule rule;
    rule.minTrials = 16;
    rule.ciRelTol = 0.25; // loose enough to fire inside 64 trials
    const MergedCampaign base = runSharded(1, 1, &rule);
    for (const std::uint64_t count : {2u, 7u, 16u}) {
        const MergedCampaign m = runSharded(count, 1, &rule);
        EXPECT_EQ(m.earlyStop.fired, base.earlyStop.fired);
        EXPECT_EQ(m.earlyStop.stopTrial, base.earlyStop.stopTrial);
        EXPECT_EQ(m.earlyStop.halfWidth, base.earlyStop.halfWidth);
        EXPECT_EQ(m.earlyStop.mean, base.earlyStop.mean);
    }
}

TEST(ShardMerge, EarlyStopReplayMatchesSingleMachineRule)
{
    // The coordinator replay at checkpointEvery=1 must agree with the
    // live single-machine early stop on where to cut the campaign.
    EarlyStopRule rule;
    rule.minTrials = 16;
    rule.ciRelTol = 0.25;

    AnnualCampaignOptions opts;
    opts.maxTrials = kTrials;
    opts.seed = kSeed;
    opts.minTrials = rule.minTrials;
    opts.ciRelTol = rule.ciRelTol;
    const auto live = runAnnualCampaign(testSpec(), opts);

    const MergedCampaign replay = runSharded(4, 1, &rule);
    EXPECT_EQ(replay.earlyStop.fired, live.stoppedEarly);
    if (live.stoppedEarly) {
        EXPECT_EQ(replay.earlyStop.stopTrial, live.trials);
    }
}

TEST(ShardIo, RoundTripIsLossless)
{
    ShardOptions opts;
    opts.checkpointEvery = 4;
    const ShardResult out =
        runAnnualShard(testSpec(), shardOf(kSeed, kTrials, 1, 7), opts);

    std::ostringstream os;
    writeShardJson(os, out);
    std::string err;
    const auto back = readShardJson(os.str(), &err);
    ASSERT_TRUE(back.has_value()) << err;

    // Re-serialization must be byte-identical (canonical format).
    std::ostringstream os2;
    writeShardJson(os2, *back);
    EXPECT_EQ(os.str(), os2.str());

    EXPECT_EQ(back->spec.lo, out.spec.lo);
    EXPECT_EQ(back->spec.hi, out.spec.hi);
    EXPECT_EQ(back->trials, out.trials);
    EXPECT_EQ(back->lossFreeTrials, out.lossFreeTrials);
    EXPECT_EQ(back->checkpoints.size(), out.checkpoints.size());
    EXPECT_EQ(back->downtimeMin.mean(), out.downtimeMin.mean());
    EXPECT_EQ(back->downtimeMin.meanCiHalfWidth(),
              out.downtimeMin.meanCiHalfWidth());
    EXPECT_EQ(back->downtimeMin.p99(), out.downtimeMin.p99());
}

/**
 * The golden shard: synthetic, with dyadic-rational observations (so
 * every double prints exactly) and a pinned build string — any change
 * to the serialized bytes is a schema change and must bump
 * kShardSchemaVersion plus regenerate the fixture
 * (BPSIM_WRITE_FIXTURES=1 ./shard_test, then rename it to the new
 * version).
 */
ShardResult
goldenShard()
{
    ShardResult r;
    r.spec.seed = 7;
    r.spec.campaignTrials = 4;
    r.spec.lo = 0;
    r.spec.hi = 2;
    r.spec.shardIndex = 0;
    r.spec.shardCount = 2;
    r.trials = 2;
    const double d0 = 1.5, d1 = 2.25;
    r.downtimeMin.add(d0);
    r.downtimeMin.add(d1);
    r.lossesPerYear.add(0.0);
    r.lossesPerYear.add(1.0);
    r.meanPerf.add(0.875);
    r.meanPerf.add(0.75);
    r.batteryKwh.add(12.5);
    r.batteryKwh.add(0.0);
    r.worstGapMin.add(0.0);
    r.worstGapMin.add(8.125);
    r.lossFreeTrials = 1;
    ShardCheckpoint c0;
    c0.trials = 1;
    c0.sum.add(d0);
    c0.sumSq.add(d0 * d0);
    ShardCheckpoint c1;
    c1.trials = 2;
    c1.sum.add(d0);
    c1.sum.add(d1);
    c1.sumSq.add(d0 * d0);
    c1.sumSq.add(d1 * d1);
    r.checkpoints = {c0, c1};
    r.build = "golden-fixture";
    r.wallSeconds = 0.25;
    return r;
}

TEST(ShardIo, GoldenFileIsByteStable)
{
    const std::string path =
        std::string(BPSIM_FIXTURE_DIR) + "/shard_v2.json";
    std::ostringstream os;
    writeShardJson(os, goldenShard());

    if (std::getenv("BPSIM_WRITE_FIXTURES") != nullptr) {
        std::ofstream f(path);
        ASSERT_TRUE(f.good()) << path;
        f << os.str();
        GTEST_SKIP() << "fixture regenerated: " << path;
    }

    std::ifstream f(path);
    ASSERT_TRUE(f.good()) << "missing fixture " << path;
    std::ostringstream want;
    want << f.rdbuf();
    EXPECT_EQ(os.str(), want.str())
        << "shard schema drifted: bump kShardSchemaVersion and "
           "regenerate with BPSIM_WRITE_FIXTURES=1";

    // And the committed fixture parses back to the same aggregates.
    std::string err;
    const auto back = readShardJson(want.str(), &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(back->downtimeMin.mean(), goldenShard().downtimeMin.mean());
    EXPECT_EQ(back->build, "golden-fixture");
}

TEST(ShardIo, LegacyFileWithoutIncidentsParsesAndMerges)
{
    // Shard files from runs without observability carry no
    // "incidents" key (the golden test above pins those bytes). They
    // must parse back with an empty aggregate and merge cleanly with
    // shards that do carry forensics.
    std::ostringstream os;
    writeShardJson(os, goldenShard());
    const std::string text = os.str();
    ASSERT_EQ(text.find("\"incidents\""), std::string::npos)
        << "uninstrumented shard files must not grow an incidents key";

    std::string err;
    const auto legacy = readShardJson(text, &err);
    ASSERT_TRUE(legacy.has_value()) << err;
    EXPECT_TRUE(legacy->incidents.empty());

    // The other half of the same campaign, written by a newer binary
    // with forensics enabled.
    ShardResult upper = goldenShard();
    upper.spec.lo = 2;
    upper.spec.hi = 4;
    upper.spec.shardIndex = 1;
    upper.checkpoints.clear();
    obs::TrialForensics t;
    t.trial = 2;
    t.reportedDowntimeMin = 1.5;
    t.attributedMin[static_cast<std::size_t>(
        obs::RootCause::CapacityShortfall)] = 1.5;
    t.hasTrialEnd = true;
    upper.incidents.addTrial(t);

    std::ostringstream os2;
    writeShardJson(os2, upper);
    EXPECT_NE(os2.str().find("\"incidents\""), std::string::npos);
    const auto newer = readShardJson(os2.str(), &err);
    ASSERT_TRUE(newer.has_value()) << err;

    const auto merged = mergeShards({*legacy, *newer}, nullptr, &err);
    ASSERT_TRUE(merged.has_value()) << err;
    EXPECT_EQ(merged->trials, 4u);
    EXPECT_EQ(merged->incidents.trials(), 1u);
    EXPECT_DOUBLE_EQ(merged->incidents.attributedTotalMin(), 1.5);
}

TEST(ShardIo, RejectsForeignSchema)
{
    std::ostringstream os;
    writeShardJson(os, goldenShard());
    std::string text = os.str();

    // Not JSON at all.
    std::string err;
    EXPECT_FALSE(readShardJson("{oops", &err).has_value());
    EXPECT_FALSE(err.empty());

    // Wrong schema name.
    std::string renamed = text;
    const auto name_at = renamed.find(kShardSchemaName);
    ASSERT_NE(name_at, std::string::npos);
    renamed.replace(name_at, std::string(kShardSchemaName).size(),
                    "someone.elses.schema");
    EXPECT_FALSE(readShardJson(renamed, &err).has_value());

    // Future schema version.
    std::string bumped = text;
    const std::string ver = "\"schema_version\":2";
    const auto ver_at = bumped.find(ver);
    ASSERT_NE(ver_at, std::string::npos);
    bumped.replace(ver_at, ver.size(), "\"schema_version\":999");
    EXPECT_FALSE(readShardJson(bumped, &err).has_value());
    EXPECT_NE(err.find("version"), std::string::npos);
}

TEST(ShardMerge, RejectsInconsistentShardSets)
{
    auto run = [](std::uint64_t seed, std::uint64_t trials,
                  std::uint64_t i, std::uint64_t n) {
        return runAnnualShard(testSpec(), shardOf(seed, trials, i, n));
    };
    const auto a = run(kSeed, 8, 0, 2);
    const auto b = run(kSeed, 8, 1, 2);

    std::string err;
    // Complete set is fine.
    EXPECT_TRUE(mergeShards({a, b}, nullptr, &err).has_value()) << err;
    // Missing shard -> gap.
    EXPECT_FALSE(mergeShards({a}, nullptr, &err).has_value());
    // Duplicate shard -> overlap.
    EXPECT_FALSE(mergeShards({a, a, b}, nullptr, &err).has_value());
    // Seed mismatch.
    const auto foreign = run(kSeed + 1, 8, 1, 2);
    EXPECT_FALSE(mergeShards({a, foreign}, nullptr, &err).has_value());
    EXPECT_FALSE(err.empty());
    // Campaign-size mismatch.
    const auto other_n = run(kSeed, 12, 1, 2);
    EXPECT_FALSE(mergeShards({a, other_n}, nullptr, &err).has_value());
    // Empty input.
    EXPECT_FALSE(mergeShards({}, nullptr, &err).has_value());
}

TEST(ShardRun, ThreadCountDoesNotChangeAggregates)
{
    ShardOptions serial;
    serial.threads = 1;
    ShardOptions wide;
    wide.threads = 8;
    const auto spec = shardOf(kSeed, 32, 0, 1);
    const auto a = runAnnualShard(testSpec(), spec, serial);
    const auto b = runAnnualShard(testSpec(), spec, wide);
    EXPECT_EQ(a.downtimeMin.mean(), b.downtimeMin.mean());
    EXPECT_EQ(a.downtimeMin.variance(), b.downtimeMin.variance());
    EXPECT_EQ(a.downtimeMin.p99(), b.downtimeMin.p99());
    EXPECT_EQ(a.lossFreeTrials, b.lossFreeTrials);
}

/** The text of the `"name":{...}` member of a flat JSON object. */
std::string
memberText(const std::string &doc, const std::string &name)
{
    const auto at = doc.find("\"" + name + "\":{");
    if (at == std::string::npos)
        return "";
    return doc.substr(at, doc.find('}', at) + 1 - at);
}

TEST(ShardMerge, CampaignIsOneShardPlusFinalize)
{
    // A campaign and a one-shard merge of the same trials run the same
    // driver into the same aggregate: every metric object (and the
    // loss-free interval) must serialize to the same bytes.
    AnnualCampaignOptions opts;
    opts.maxTrials = kTrials;
    opts.seed = kSeed;
    CampaignJsonOptions jopts;
    jopts.includeTiming = false;
    std::ostringstream campaign;
    writeCampaignJson(campaign, runAnnualCampaign(testSpec(), opts), jopts);

    std::string err;
    const auto merged = mergeShards(
        {runAnnualShard(testSpec(), shardOf(kSeed, kTrials, 0, 1))},
        nullptr, &err);
    ASSERT_TRUE(merged.has_value()) << err;
    std::ostringstream shard;
    writeMergedJson(shard, *merged);

    for (const char *name : {"downtime_min", "losses_per_year", "mean_perf",
                             "battery_kwh", "worst_gap_min", "loss_free"}) {
        const std::string want = memberText(campaign.str(), name);
        ASSERT_FALSE(want.empty()) << name;
        EXPECT_EQ(memberText(shard.str(), name), want);
    }
}

/**
 * Re-serialize @p v, applying one mutation to the @p target-th object
 * member in document order (counting in @p seen): drop it, give it a
 * value of another JSON kind, or rename its key to @p key. The path of
 * the mutated member lands in @p path.
 */
enum class Mutation { None, Drop, Retype, Rename };

void
emit(JsonWriter &w, const JsonValue &v, std::size_t target, Mutation how,
     const std::string &key, std::size_t &seen,
     std::vector<std::string> &trail, std::vector<std::string> &path)
{
    switch (v.kind()) {
    case JsonValue::Kind::Null:
        w.raw("null");
        return;
    case JsonValue::Kind::Bool:
        w.value(v.asBool());
        return;
    case JsonValue::Kind::Number:
        w.value(v.asDouble());
        return;
    case JsonValue::Kind::String:
        w.value(v.asString());
        return;
    case JsonValue::Kind::Array:
        w.beginArray();
        for (std::size_t i = 0; i < v.size(); ++i)
            emit(w, v.item(i), target, how, key, seen, trail, path);
        w.endArray();
        return;
    case JsonValue::Kind::Object:
        w.beginObject();
        for (std::size_t i = 0; i < v.size(); ++i) {
            const auto &[name, member] = v.member(i);
            trail.push_back(name);
            if (seen++ == target && how != Mutation::None) {
                path = trail;
                if (how == Mutation::Retype) {
                    w.key(name);
                    if (member.kind() == JsonValue::Kind::String)
                        w.value(7);
                    else
                        w.value("x");
                } else if (how == Mutation::Rename) {
                    w.key(key);
                    emit(w, member, target, how, key, seen, trail, path);
                }
            } else {
                w.key(name);
                emit(w, member, target, how, key, seen, trail, path);
            }
            trail.pop_back();
        }
        w.endObject();
        return;
    }
}

struct Mutated
{
    std::string text;
    std::vector<std::string> path;
};

Mutated
mutate(const JsonValue &doc, std::size_t target, Mutation how,
       const std::string &key = "")
{
    std::ostringstream os;
    JsonWriter w(os);
    std::size_t seen = 0;
    std::vector<std::string> trail;
    Mutated out;
    emit(w, doc, target, how, key, seen, trail, out.path);
    out.text = os.str();
    return out;
}

/** Members a well-formed document may lack: the obs blocks and the
 *  entries of the counter/histogram maps. */
bool
optionalMember(const std::vector<std::string> &path)
{
    const std::string &top = path.front();
    if (top == "incidents")
        return path.size() == 1;
    if (top != "counters" && top != "histograms")
        return false;
    return path.size() <= 2 ||
           (path.size() == 4 && path[2] == "buckets");
}

/** Run the mutation table over @p good through @p read. */
template <typename ReadFn>
void
expectMutationsRejected(const std::string &good, ReadFn read)
{
    std::string err;
    ASSERT_TRUE(read(good, &err)) << err;
    const auto doc = parseJson(good);
    ASSERT_TRUE(doc.has_value());
    // Round-tripping through the mutator without a mutation is exact.
    ASSERT_EQ(mutate(*doc, 0, Mutation::None).text + "\n", good);

    std::size_t members = 0, dropped_ok = 0;
    for (bool more = true; more; ++members) {
        const Mutated drop = mutate(*doc, members, Mutation::Drop);
        more = !drop.path.empty();
        if (!more)
            break;
        const std::string where = drop.path.back();
        err.clear();
        if (optionalMember(drop.path)) {
            EXPECT_TRUE(read(drop.text, &err)) << "drop " << where << err;
            ++dropped_ok;
        } else {
            EXPECT_FALSE(read(drop.text, &err)) << "drop " << where;
            EXPECT_FALSE(err.empty()) << "drop " << where;
        }
        const Mutated retyped = mutate(*doc, members, Mutation::Retype);
        err.clear();
        EXPECT_FALSE(read(retyped.text, &err)) << "retype " << where;
        EXPECT_FALSE(err.empty()) << "retype " << where;
    }
    EXPECT_GT(members, 100u);
    EXPECT_GT(dropped_ok, 0u);

    // Non-digit (or out-of-range) histogram bucket keys.
    std::size_t bucket = 0;
    for (;; ++bucket) {
        const auto path = mutate(*doc, bucket, Mutation::Drop).path;
        ASSERT_FALSE(path.empty()) << "document has no histogram bucket";
        if (path.size() == 4 && path[0] == "histograms")
            break;
    }
    for (const char *key : {"abc", "", "-1", "0x1", "1e3", "9999999999"}) {
        err.clear();
        EXPECT_FALSE(
            read(mutate(*doc, bucket, Mutation::Rename, key).text, &err))
            << "bucket key \"" << key << "\"";
        EXPECT_FALSE(err.empty()) << "bucket key \"" << key << "\"";
    }

    // Truncation anywhere.
    for (std::size_t len = 0; len + 1 < good.size(); len += 7) {
        err.clear();
        EXPECT_FALSE(read(good.substr(0, len), &err)) << "length " << len;
        EXPECT_FALSE(err.empty()) << "length " << len;
    }
}

/** Arm tracing for one test; restore a clean disabled state after. */
struct TracingOn
{
    TracingOn()
    {
        obs::TraceSink::instance().clear();
        obs::setEnabled(true);
    }
    ~TracingOn()
    {
        obs::setEnabled(false);
        obs::TraceSink::instance().clear();
    }
};

TEST(ShardIo, MutatedDocumentsAreRejectedWithoutAborting)
{
    std::string shard_doc, checkpoint_doc;
    {
        // Traced runs, so both documents carry every optional member.
        const TracingOn tracing;
        ShardOptions sopts;
        sopts.checkpointEvery = 2;
        std::ostringstream os;
        writeShardJson(os, runAnnualShard(testSpec(),
                                          shardOf(kSeed, 12, 1, 2), sopts));
        shard_doc = os.str();

        AnnualCampaignOptions copts;
        copts.maxTrials = 6;
        copts.seed = kSeed;
        std::ostringstream ck;
        writeCheckpointJson(
            ck, runResumableCampaign(testSpec(), copts).checkpoint);
        checkpoint_doc = ck.str();
    }
#if BPSIM_OBS_ENABLED
    for (const std::string *doc : {&shard_doc, &checkpoint_doc}) {
        EXPECT_NE(doc->find("\"counters\""), std::string::npos);
        EXPECT_NE(doc->find("\"histograms\""), std::string::npos);
        EXPECT_NE(doc->find("\"incidents\""), std::string::npos);
    }
#else
    GTEST_SKIP() << "observability compiled out: no obs members to mutate";
#endif

    expectMutationsRejected(shard_doc, [](const std::string &text,
                                          std::string *err) {
        return readShardJson(text, err).has_value();
    });
    expectMutationsRejected(checkpoint_doc, [](const std::string &text,
                                               std::string *err) {
        return readCheckpointJson(text, err).has_value();
    });
}

} // namespace
} // namespace bpsim
