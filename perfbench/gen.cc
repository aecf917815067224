#include "gen.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace perfbench
{

namespace
{

/** Seeds of scenarios the client-A list asks; hot-set seeds start
 *  past this range, so the two never share a cache key. */
constexpr std::uint64_t kMissSeedRange = 1000000;

const char *const kTechniques[] = {"none", "throttle", "throttle_sleep",
                                   "sleep"};

/** The technique object each kind name is sent with. */
std::string
techniqueJson(const std::string &kind)
{
    if (kind == "throttle")
        return "{\"kind\":\"throttle\",\"pstate\":5}";
    if (kind == "throttle_sleep")
        return "{\"kind\":\"throttle_sleep\",\"pstate\":5,"
               "\"serve_for_min\":4,\"low_power\":true}";
    if (kind == "sleep")
        return "{\"kind\":\"sleep\",\"low_power\":true}";
    return "{\"kind\":\"none\"}";
}

/**
 * (budget, servers) pairs of the fresh misses. The full ladder spans
 * budgets 20..160 and servers 8..64; a run's misses are the first n
 * pairs (cycling), so every seed asks the same shapes.
 */
const std::pair<std::uint64_t, int> kMissLadder[] = {
    {20, 8},  {40, 24}, {30, 32}, {60, 8},  {20, 64},
    {36, 8},  {24, 16}, {48, 48}, {80, 16}, {160, 8},
};

/** Extra trials of every budget extension: one size, so the median
 *  of a handful of extensions is not the cost of one of them. */
constexpr std::uint64_t kResumeDelta = 30;

/** Budget extensions start only from misses this small, which keeps
 *  their checkpoints well inside the server's store limit and their
 *  cost set by the delta alone. */
constexpr std::uint64_t kResumeBaseMaxTrials = 60;
constexpr int kResumeBaseServers = 8;

} // namespace

std::uint64_t
SplitMix::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
WhatIf::body() const
{
    std::ostringstream os;
    os << "{\"config\":";
    if (config.empty())
        os << "{\"name\":\"bench-custom\",\"has_dg\":false,"
              "\"has_ups\":true,\"ups_power_frac\":0.75,"
              "\"ups_runtime_sec\":600}";
    else
        os << '"' << config << '"';
    os << ",\"technique\":" << techniqueJson(technique)
       << ",\"servers\":" << servers << ",\"trials\":" << trials
       << ",\"seed\":" << seed << '}';
    return os.str();
}

const std::vector<std::string> &
table3Names()
{
    static const std::vector<std::string> names = {
        "MaxPerf",           "MinCost",   "NoDG",
        "NoUPS",             "DG-SmallPUPS",
        "SmallDG-SmallPUPS", "SmallPUPS", "LargeEUPS",
        "SmallP-LargeEUPS"};
    return names;
}

std::vector<WhatIf>
hotSet(std::uint64_t seed, std::size_t n)
{
    SplitMix rng(seed ^ 0x686f747365747631ull);
    std::vector<std::size_t> configs(table3Names().size());
    for (std::size_t i = 0; i < configs.size(); ++i)
        configs[i] = i;
    shuffle(configs, rng);
    std::vector<WhatIf> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        WhatIf &w = out[i];
        w.config = table3Names()[configs[i % configs.size()]];
        w.technique = kTechniques[rng.below(4)];
        w.servers = 8;
        w.trials = 2 + i % 3;
        w.seed = kMissSeedRange + 1 + rng.below(kMissSeedRange);
    }
    return out;
}

std::vector<std::vector<HotReq>>
hotPlan(std::uint64_t seed, std::size_t hot_entries, std::size_t clients,
        std::size_t per_client)
{
    SplitMix rng(seed ^ 0x686f74706c616e31ull);
    std::vector<std::vector<HotReq>> plan(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        // This client's hot entries, in a seed-chosen popularity order.
        std::vector<std::uint32_t> mine;
        for (std::size_t i = c; i < hot_entries; i += clients)
            mine.push_back(static_cast<std::uint32_t>(i));
        shuffle(mine, rng);
        std::vector<double> cdf(mine.size());
        double total = 0.0;
        for (std::size_t r = 0; r < mine.size(); ++r)
            cdf[r] = (total += 1.0 / std::pow(r + 1.0, 1.1));

        const std::size_t status = per_client * 8 / 100;
        const std::size_t series = per_client / 100;
        const std::size_t metrics = per_client / 100;
        auto &reqs = plan[c];
        reqs.resize(per_client);
        std::size_t k = 0;
        for (std::size_t i = 0; i < status; ++i)
            reqs[k++].kind = HotKind::Status;
        for (std::size_t i = 0; i < series; ++i)
            reqs[k++].kind = HotKind::Series;
        for (std::size_t i = 0; i < metrics; ++i)
            reqs[k++].kind = HotKind::Metrics;
        for (; k < per_client; ++k) {
            const double u = rng.unit() * total;
            std::size_t r = 0;
            while (r + 1 < cdf.size() && cdf[r] <= u)
                ++r;
            reqs[k] = {HotKind::Hit, mine[r]};
        }
        shuffle(reqs, rng);
    }
    return plan;
}

std::vector<MixedStep>
mixedPlan(std::uint64_t seed, const MixedSize &size)
{
    SplitMix rng(seed ^ 0x6d69786564763131ull);
    const std::size_t n_ladder = std::size(kMissLadder);

    // Fresh misses: fixed shapes, seed-drawn scenario, one of them the
    // custom config object.
    std::vector<std::pair<std::uint64_t, int>> shapes;
    for (std::size_t i = 0; i < size.misses; ++i)
        shapes.push_back(kMissLadder[i % n_ladder]);
    shuffle(shapes, rng);
    const std::size_t custom_at =
        size.misses > 0 ? rng.below(size.misses) : 0;
    std::vector<WhatIf> misses(size.misses);
    for (std::size_t i = 0; i < size.misses; ++i) {
        WhatIf &w = misses[i];
        w.config = i == custom_at
                       ? std::string()
                       : table3Names()[rng.below(table3Names().size())];
        w.technique = kTechniques[rng.below(4)];
        w.trials = shapes[i].first;
        w.servers = shapes[i].second;
        w.seed = 1 + rng.below(kMissSeedRange);
    }

    // Step kinds in seed order; the first step is always a miss.
    std::vector<MixedKind> kinds;
    kinds.insert(kinds.end(), size.misses, MixedKind::Miss);
    kinds.insert(kinds.end(), size.resumes, MixedKind::Resume);
    kinds.insert(kinds.end(), size.repeats, MixedKind::Repeat);
    shuffle(kinds, rng);

    std::vector<MixedStep> out;
    std::vector<std::size_t> bases;  // steps a resume may extend
    std::vector<std::uint64_t> depth; // trials checkpointed per step
    std::size_t next_miss = 0;
    std::vector<MixedKind> deferred;
    const auto place = [&](MixedKind kind) {
        MixedStep s;
        s.kind = kind;
        if (kind == MixedKind::Miss) {
            s.req = misses[next_miss++];
            if (s.req.trials <= kResumeBaseMaxTrials &&
                s.req.servers == kResumeBaseServers)
                bases.push_back(out.size());
        } else if (kind == MixedKind::Resume) {
            const std::size_t base = bases[rng.below(bases.size())];
            s.req = out[base].req;
            s.resumedFrom = depth[base];
            s.req.trials = depth[base] + kResumeDelta;
            depth[base] = s.req.trials;
        } else {
            s.repeatOf = rng.below(out.size());
            s.req = out[s.repeatOf].req;
        }
        depth.push_back(s.req.trials);
        out.push_back(s);
    };
    for (MixedKind kind : kinds) {
        const bool ready = kind == MixedKind::Miss ||
                           (kind == MixedKind::Resume && !bases.empty()) ||
                           (kind == MixedKind::Repeat && !out.empty());
        if (!ready) {
            deferred.push_back(kind);
            continue;
        }
        place(kind);
        // Anything deferred becomes placeable once a miss has landed.
        while (!deferred.empty() &&
               (deferred.front() == MixedKind::Repeat || !bases.empty())) {
            place(deferred.front());
            deferred.erase(deferred.begin());
        }
    }
    // A list whose misses can never seed a resume drops its resumes.
    for (MixedKind kind : deferred)
        if (kind == MixedKind::Repeat && !out.empty())
            place(kind);
    return out;
}

RunSize
runSize(const std::string &workload, int seconds)
{
    const double scale = seconds / 10.0;
    const auto scaled = [scale](double base) {
        return static_cast<std::size_t>(
            std::max(1.0, std::round(base * scale)));
    };
    RunSize r;
    // The slices every workload runs beside its primary phase, so each
    // run reports every end-to-end metric.
    r.engineRounds = 24;
    r.scaleReps = 3;
    r.hotPerClient = 6000;
    r.mixed = {6, 4, 1};
    if (workload == "sweep") {
        r.engineRounds = scaled(60);
        r.scaleReps = scaled(6);
    } else if (workload == "serve_hot") {
        r.hotPerClient = 100 * scaled(240);
    } else if (workload == "serve_mixed") {
        r.mixed = {scaled(10), scaled(6), scaled(2)};
    } else {
        throw std::invalid_argument("unknown workload \"" + workload + "\"");
    }
    return r;
}

std::vector<std::vector<Outage>>
scaleTraces(std::uint64_t seed, std::size_t round, std::size_t trials)
{
    SplitMix rng(seed ^ (0x7363616c65763100ull + round));
    constexpr double kYearSec = 365.0 * 24 * 3600;
    constexpr double kSlot = kYearSec / 3;
    std::vector<std::vector<Outage>> out(trials);
    for (auto &year : out) {
        std::vector<double> durations = {45.0, 480.0, 2400.0};
        shuffle(durations, rng);
        for (std::size_t k = 0; k < durations.size(); ++k) {
            // Start in the first half of the slot: outages never
            // overlap and are always hours apart.
            const double start = k * kSlot + rng.unit() * kSlot / 2;
            year.push_back({std::floor(start), durations[k]});
        }
    }
    return out;
}

std::vector<std::uint64_t>
engineSeeds(std::uint64_t seed, std::size_t rounds)
{
    SplitMix rng(seed ^ 0x656e67696e657631ull);
    std::vector<std::uint64_t> out(rounds);
    for (auto &s : out)
        s = 1 + rng.below(kMissSeedRange);
    return out;
}

std::string
dumpInputs(const std::string &workload, std::uint64_t seed, int seconds)
{
    const RunSize size = runSize(workload, seconds);
    std::ostringstream os;
    os << "workload " << workload << " seed " << seed << " seconds "
       << seconds << '\n';
    for (std::uint64_t s : engineSeeds(seed, size.engineRounds))
        os << "engine " << s << '\n';
    for (std::size_t r = 0; r < size.scaleReps; ++r)
        for (const auto &year : scaleTraces(seed, r, kScaleTrials))
            for (const Outage &o : year)
                os << "scale " << r << ' ' << o.startSec << ' '
                   << o.durationSec << '\n';
    for (const WhatIf &w : hotSet(seed, kHotEntries))
        os << "hot " << w.body() << '\n';
    const auto plan = hotPlan(seed, kHotEntries, 2, size.hotPerClient);
    for (std::size_t c = 0; c < plan.size(); ++c)
        for (const HotReq &r : plan[c])
            os << "client" << c << ' ' << static_cast<int>(r.kind) << ' '
               << r.entry << '\n';
    for (const MixedStep &s : mixedPlan(seed, size.mixed))
        os << "mixed " << static_cast<int>(s.kind) << ' ' << s.resumedFrom
           << ' ' << s.repeatOf << ' ' << s.req.body() << '\n';
    return os.str();
}

} // namespace perfbench
