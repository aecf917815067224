#include "workloads.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "campaign/annual_campaign.hh"
#include "campaign/json.hh"
#include "client.hh"
#include "core/annual.hh"
#include "core/backup_config.hh"
#include "layers.hh"
#include "outage/trace.hh"
#include "service/cache.hh"
#include "service/whatif.hh"
#include "workload/profile.hh"

namespace perfbench
{

using namespace bpsim;

namespace
{

/** campaign_sweep's standing defense for @p config. */
TechniqueSpec
standingDefense(const BackupConfigSpec &config)
{
    if (!config.hasUps)
        return {};
    if (config.hasDg)
        return {TechniqueKind::ThrottleSleep, 5, 0, fromMinutes(4.0), true};
    return {TechniqueKind::ThrottleSleep, 5, 0,
            fromSeconds(std::max(180.0, config.upsRuntimeSec * 0.5)), true};
}

} // namespace

AnnualCampaignSpec
sweepSpec(const BackupConfigSpec &config, int servers)
{
    AnnualCampaignSpec spec;
    spec.profile = specJbbProfile();
    spec.nServers = servers;
    spec.technique = standingDefense(config);
    spec.config = config;
    return spec;
}

AnnualCampaignOptions
sweepOptions(std::uint64_t seed)
{
    AnnualCampaignOptions o;
    o.maxTrials = 400;
    o.seed = seed;
    o.minTrials = 64;
    o.ciRelTol = 0.10;
    o.ciAbsTolMin = 1.0;
    return o;
}

namespace
{

constexpr std::size_t kClients = 2;
/** Blocks each phase is cut into; the phases take turns per block. */
constexpr std::size_t kBlocks = 10;
/** Client B's think time between hot hits in the mixed phase. */
constexpr auto kMixedHitPause = std::chrono::milliseconds(20);
const char *const kSeriesTarget =
    "/v1/series?name=service.requests:rate,"
    "service.cache.results.entries&max=60";

double
secondsSince(std::uint64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

std::vector<double>
scaled(const std::vector<std::uint64_t> &ns, double per_unit)
{
    std::vector<double> out;
    out.reserve(ns.size());
    for (std::uint64_t v : ns)
        out.push_back(static_cast<double>(v) / per_unit);
    return out;
}

// ---------------------------------------------------------------- engine

BackupConfigSpec
configNamed(const std::string &name)
{
    for (const auto &c : table3Configs())
        if (c.name == name)
            return c;
    return {};
}

/** Scale-phase shapes: (config, servers, fixed budget). */
struct ScaleShape
{
    const char *config;
    int servers;
    std::uint64_t trials;
};
const ScaleShape kScaleShapes[] = {
    {"LargeEUPS", 128, kScaleTrials},
    {"MinCost", 128, kScaleTrials},
    {"LargeEUPS", 512, 4},
    {"MinCost", 512, 4},
};

struct EngineOut
{
    /** Per-round rates: simulated years (Table-3 rounds) and
     *  server-years (scale rounds) per second of campaign calls. */
    std::vector<double> yearsPerSec;
    std::vector<double> serverYearsPerSec;
    std::vector<std::uint64_t> digests;
    /** Campaign call spans (traced pass) and the phase bounds. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
};

std::string
deterministicJson(const AnnualCampaignSummary &s)
{
    std::ostringstream os;
    CampaignJsonOptions j;
    j.includeTiming = false;
    writeCampaignJson(os, s, j);
    return os.str();
}

/** One Table-3 round; returns the digest of its nine documents. */
std::uint64_t
table3Round(std::uint64_t seed, EngineOut &out)
{
    std::string docs;
    double years = 0.0, ns = 0.0;
    for (const auto &config : table3Configs()) {
        const auto spec = sweepSpec(config, 8);
        const std::uint64_t t0 = nowNs();
        const auto s = runAnnualCampaign(spec, sweepOptions(seed));
        const std::uint64_t t1 = nowNs();
        out.spans.emplace_back(t0, t1);
        years += static_cast<double>(s.trials);
        ns += static_cast<double>(t1 - t0);
        docs += deterministicJson(s);
    }
    out.yearsPerSec.push_back(years / (ns * 1e-9));
    return service::fnv1a64(docs);
}

/**
 * One scale round: each shape replays this round's generated traces
 * through runAnnualCampaign()'s custom-trial overload on the shared
 * pool, so trial t simulates year t of scaleTraces().
 */
void
scaleRound(std::uint64_t seed, std::size_t round, EngineOut &out)
{
    std::vector<std::vector<OutageEvent>> years;
    for (const auto &trace : scaleTraces(seed, round, kScaleTrials)) {
        years.emplace_back();
        for (const Outage &o : trace)
            years.back().push_back(
                {fromSeconds(o.startSec), fromSeconds(o.durationSec)});
    }
    const AnnualSimulator sim;
    double server_years = 0.0, ns = 0.0;
    for (const ScaleShape &shape : kScaleShapes) {
        const auto spec = sweepSpec(configNamed(shape.config), shape.servers);
        AnnualCampaignOptions o;
        o.maxTrials = shape.trials;
        o.seed = seed;
        const AnnualTrialFn trial = [&](std::uint64_t t, Rng &) {
            return sim.runYear(spec.profile, spec.nServers, spec.technique,
                               spec.config, years[t]);
        };
        const std::uint64_t t0 = nowNs();
        const auto s = runAnnualCampaign(trial, o);
        const std::uint64_t t1 = nowNs();
        out.spans.emplace_back(t0, t1);
        server_years += static_cast<double>(s.trials * shape.servers);
        ns += static_cast<double>(t1 - t0);
    }
    out.serverYearsPerSec.push_back(server_years / (ns * 1e-9));
}

/** [begin, end) of block @p b when @p n items are cut into @p blocks. */
std::pair<std::size_t, std::size_t>
block(std::size_t n, std::size_t b, std::size_t blocks)
{
    return {n * b / blocks, n * (b + 1) / blocks};
}

/**
 * Block @p b of the engine phase: its share of the Table-3 rounds,
 * then of the scale rounds. Round 0 must reproduce the set-up
 * digest when there is one.
 */
void
engineBlock(Run &run, EngineOut &out, std::size_t b, std::size_t blocks,
            std::uint64_t setup_digest)
{
    const auto seeds = engineSeeds(run.seed, run.size.engineRounds);
    const auto [r0, r1] = block(run.size.engineRounds, b, blocks);
    for (std::size_t r = r0; r < r1; ++r) {
        out.digests.push_back(table3Round(seeds[r], out));
        run.check(r != 0 || setup_digest == 0 ||
                      out.digests.front() == setup_digest,
                  "table3 round 0 digest differs from its set-up run");
    }
    const auto [s0, s1] = block(run.size.scaleReps, b, blocks);
    for (std::size_t r = s0; r < s1; ++r) {
        scaleRound(run.seed, r, out);
        run.check(true, "scale round");
    }
}

void
reportEngine(Run &run, const EngineOut &e)
{
    // Medians over rounds: a burst of outside load slows a few rounds
    // without moving the median.
    run.e2e["years_per_s"] = {median(e.yearsPerSec), "1/s"};
    run.e2e["server_years_per_s"] = {median(e.serverYearsPerSec), "1/s"};
    std::printf("# sweep digest %016llx over %zu Table-3 rounds\n",
                static_cast<unsigned long long>(e.digests.at(0)),
                e.digests.size());
}

// ---------------------------------------------------------------- server

struct Server
{
    std::unique_ptr<ServerProcess> proc;
    std::vector<std::string> warmBodies;
};
using Servers = std::vector<Server>;

/**
 * Launch campaign_server with @p flags, wait for /healthz, and warm
 * @p hot (each must be a 200 miss). Returns the set-up seconds.
 */
double
launchServer(Run &run, const std::vector<WhatIf> &hot,
             const std::vector<std::string> &flags, Server &out)
{
    const std::uint64_t t0 = nowNs();
    out.proc = std::make_unique<ServerProcess>(run.serverBinary, run.workdir,
                                               flags);
    run.check(out.proc->ok(), "campaign_server did not come up");
    out.warmBodies.clear();
    for (const WhatIf &w : hot) {
        const Reply r = out.proc->ok()
                            ? request(out.proc->port(), "POST",
                                      "/v1/whatif", w.body())
                            : Reply{};
        run.check(r.status == 200 && r.header("X-Bpsim-Cache") == "miss",
                  "hot-set warm-up was not a 200 miss");
        out.warmBodies.push_back(r.body);
    }
    return secondsSince(t0);
}

/** Counter value @p name (an OpenMetrics `_total` line) in @p text. */
double
scrapeCounter(const std::string &text, const std::string &name)
{
    const std::string key = "\n" + name + "_total{";
    const std::size_t at = text.find(key);
    if (at == std::string::npos)
        return 0.0;
    const std::size_t sp = text.find("} ", at);
    return sp == std::string::npos ? 0.0 : std::atof(text.c_str() + sp + 2);
}

// ------------------------------------------------------------ hot phase

struct HotOut
{
    std::vector<std::vector<HotReq>> plan;
    std::vector<std::string> bodies;
    std::vector<std::uint64_t> hitNs, statusNs, seriesNs, scrapeNs;
    double wallSec = 0.0;
    /** Each server's cache counters before the first block. */
    std::vector<double> hitsBefore, missesBefore;
    double cacheHits = 0.0;
    double cacheMisses = 0.0;
};

HotOut
hotStart(Run &run, const Servers &servers, std::size_t per_client)
{
    HotOut out;
    const std::size_t entries = servers.front().warmBodies.size();
    out.plan = hotPlan(run.seed, entries, kClients, per_client);
    for (const WhatIf &w : hotSet(run.seed, entries))
        out.bodies.push_back(w.body());
    for (const Server &server : servers) {
        const std::string m =
            request(server.proc->port(), "GET", "/metrics").body;
        out.hitsBefore.push_back(scrapeCounter(m, "bpsim_service_cache_hits"));
        out.missesBefore.push_back(
            scrapeCounter(m, "bpsim_service_cache_misses"));
    }
    return out;
}

/**
 * Block @p b of the hot phase: both clients run their share against
 * server b mod n (the set-up servers take turns, so the reported peak
 * RSS is a median over several servers).
 */
void
hotBlock(Run &run, const Servers &servers, HotOut &out, std::size_t b,
         std::size_t blocks)
{
    const Server &server = servers[b % servers.size()];
    const std::uint16_t port = server.proc->port();
    struct PerClient
    {
        std::vector<std::uint64_t> hitNs, statusNs, seriesNs, scrapeNs;
        long attempted = 0;
        long failed = 0;
    };
    std::vector<PerClient> per(kClients);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            PerClient &me = per[c];
            const auto [i0, i1] = block(out.plan[c].size(), b, blocks);
            for (std::size_t i = i0; i < i1; ++i) {
                const HotReq &q = out.plan[c][i];
                Reply r;
                bool ok = false;
                switch (q.kind) {
                case HotKind::Hit:
                    r = request(port, "POST", "/v1/whatif",
                                out.bodies[q.entry]);
                    ok = r.status == 200 &&
                         r.header("X-Bpsim-Cache") == "hit" &&
                         r.body == server.warmBodies[q.entry];
                    me.hitNs.push_back(r.ns);
                    break;
                case HotKind::Status:
                    r = request(port, "GET", "/v1/status");
                    ok = r.status == 200;
                    me.statusNs.push_back(r.ns);
                    break;
                case HotKind::Series:
                    r = request(port, "GET", kSeriesTarget);
                    ok = r.status == 200;
                    me.seriesNs.push_back(r.ns);
                    break;
                case HotKind::Metrics:
                    r = request(port, "GET", "/metrics");
                    ok = r.status == 200 &&
                         r.body.find("# EOF") != std::string::npos;
                    me.scrapeNs.push_back(r.ns);
                    break;
                }
                ++me.attempted;
                me.failed += ok ? 0 : 1;
            }
        });
    }
    const std::uint64_t t0 = nowNs();
    go.store(true, std::memory_order_release);
    for (auto &t : threads)
        t.join();
    out.wallSec += secondsSince(t0);

    const auto add = [](auto &to, const auto &from) {
        to.insert(to.end(), from.begin(), from.end());
    };
    for (const PerClient &p : per) {
        add(out.hitNs, p.hitNs);
        add(out.statusNs, p.statusNs);
        add(out.seriesNs, p.seriesNs);
        add(out.scrapeNs, p.scrapeNs);
        run.attempted += p.attempted;
        run.failed += p.failed;
        if (p.failed > 0)
            std::fprintf(stderr, "perfbench: hot phase: %ld failed "
                                 "requests\n",
                         p.failed);
    }
}

/** After the last block: the servers must have counted only hits. */
void
hotFinish(Run &run, const Servers &servers, HotOut &out)
{
    for (std::size_t i = 0; i < servers.size(); ++i) {
        const std::string m =
            request(servers[i].proc->port(), "GET", "/metrics").body;
        out.cacheHits +=
            scrapeCounter(m, "bpsim_service_cache_hits") - out.hitsBefore[i];
        out.cacheMisses += scrapeCounter(m, "bpsim_service_cache_misses") -
                           out.missesBefore[i];
    }
    run.check(out.cacheMisses == 0.0 &&
                  out.cacheHits == static_cast<double>(out.hitNs.size()),
              "hot phase: server counted a cache miss");
}

void
reportHot(Run &run, const HotOut &h)
{
    // hit_p90_us and hit_rps (which follows the mean, so the tail)
    // spread past any usable bound between runs on a shared 4-core
    // host; they are reported by the traced run instead.
    run.e2e["hit_p50_us"] = {median(scaled(h.hitNs, 1e3)), "us"};
    run.e2e["status_p50_us"] = {median(scaled(h.statusNs, 1e3)), "us"};
    run.e2e["scrape_p50_ms"] = {median(scaled(h.scrapeNs, 1e6)), "ms"};
}

// ---------------------------------------------------------- mixed phase

struct MixedOut
{
    std::vector<MixedStep> plan;
    std::vector<Reply> replies;
    /** Client B's fixed cyclic order over the server's hot set. */
    std::vector<std::size_t> order;
    std::size_t nextB = 0;
    std::vector<std::uint64_t> missNs, resumeNs, repeatNs, hitNs;
    /** Trials simulated by misses and resumes, and their latency. */
    double simTrials = 0.0;
    double simSec = 0.0;
};

MixedOut
mixedStart(Run &run, const Server &server, const MixedSize &size)
{
    MixedOut out;
    out.plan = mixedPlan(run.seed, size);
    out.replies.resize(out.plan.size());
    out.order.resize(server.warmBodies.size());
    for (std::size_t i = 0; i < out.order.size(); ++i)
        out.order[i] = i;
    SplitMix rng(run.seed ^ 0x636c69656e74622eull);
    shuffle(out.order, rng);
    return out;
}

/**
 * Block @p b of the mixed phase: client A sends its share of the
 * list, closed loop; client B sends hot hits with a fixed pause for
 * as long as A is busy.
 */
void
mixedBlock(Run &run, const Server &server, MixedOut &out, std::size_t b,
           std::size_t blocks)
{
    const auto [i0, i1] = block(out.plan.size(), b, blocks);
    if (i0 == i1)
        return;
    const std::uint16_t port = server.proc->port();
    const auto hot = hotSet(run.seed, server.warmBodies.size());

    std::atomic<bool> a_done{false};
    long b_attempted = 0, b_failed = 0;
    std::thread client_b([&] {
        // Start one pause behind A, so every B hit meets A's campaign
        // in flight instead of racing A's first request of the block.
        std::this_thread::sleep_for(kMixedHitPause);
        while (!a_done.load(std::memory_order_acquire)) {
            const std::size_t e = out.order[out.nextB++ % out.order.size()];
            const Reply r =
                request(port, "POST", "/v1/whatif", hot[e].body());
            out.hitNs.push_back(r.ns);
            ++b_attempted;
            b_failed += r.status == 200 &&
                                r.header("X-Bpsim-Cache") == "hit" &&
                                r.body == server.warmBodies[e]
                            ? 0
                            : 1;
            std::this_thread::sleep_for(kMixedHitPause);
        }
    });
    for (std::size_t i = i0; i < i1; ++i) {
        const MixedStep &s = out.plan[i];
        out.replies[i] = request(port, "POST", "/v1/whatif", s.req.body());
        const std::uint64_t ns = out.replies[i].ns;
        if (s.kind == MixedKind::Miss) {
            out.missNs.push_back(ns);
            out.simTrials += static_cast<double>(s.req.trials);
        } else if (s.kind == MixedKind::Resume) {
            out.resumeNs.push_back(ns);
            out.simTrials += static_cast<double>(s.req.trials - s.resumedFrom);
        } else {
            out.repeatNs.push_back(ns);
            continue;
        }
        out.simSec += static_cast<double>(ns) * 1e-9;
    }
    a_done.store(true, std::memory_order_release);
    client_b.join();
    run.attempted += b_attempted;
    run.failed += b_failed;
    if (b_failed > 0)
        std::fprintf(stderr, "perfbench: mixed phase: %ld client-B hits "
                             "failed\n",
                     b_failed);

    // Headers and repeats now; bodies against references later.
    for (std::size_t i = i0; i < i1; ++i) {
        const MixedStep &s = out.plan[i];
        const Reply &r = out.replies[i];
        const std::string cache = r.header("X-Bpsim-Cache");
        const std::string resumed = r.header("X-Bpsim-Resumed-From");
        bool ok = r.status == 200;
        if (s.kind == MixedKind::Miss)
            ok = ok && cache == "miss" && resumed.empty();
        else if (s.kind == MixedKind::Resume)
            ok = ok && cache == "miss" &&
                 resumed == std::to_string(s.resumedFrom);
        else
            ok = ok && cache == "hit" &&
                 r.body == out.replies[s.repeatOf].body;
        run.check(ok, "mixed step " + std::to_string(i) +
                          ": unexpected status or cache headers");
    }
}

void
reportMixed(Run &run, const MixedOut &m)
{
    run.e2e["miss_p50_ms"] = {median(scaled(m.missNs, 1e6)), "ms"};
    run.e2e["resume_p50_ms"] = {median(scaled(m.resumeNs, 1e6)), "ms"};
    run.e2e["miss_years_per_s"] = {m.simTrials / m.simSec, "1/s"};
    run.e2e["mixed_hit_p50_ms"] = {median(scaled(m.hitNs, 1e6)), "ms"};
}

/**
 * Every miss and resume body must equal an in-process runWhatIf() of
 * the same request, computed with obs off after the timed section.
 * (Repeats were already compared with the step they repeat.)
 */
void
verifyMixed(Run &run, const MixedOut &m)
{
    for (std::size_t i = 0; i < m.plan.size(); ++i) {
        if (m.plan[i].kind == MixedKind::Repeat)
            continue;
        std::string err;
        const auto json = parseJson(m.plan[i].req.body(), &err);
        const auto req = json ? service::parseWhatIfRequest(*json, &err)
                              : std::nullopt;
        run.check(req && service::runWhatIf(*req) == m.replies[i].body,
                  "mixed step " + std::to_string(i) +
                      ": body differs from in-process runWhatIf()");
    }
}

// ------------------------------------------------------------ set-ups

/** setup_s for sweep: warm-up Table-3 rounds (round-0 seed), each of
 *  which must produce the same digest. */
std::uint64_t
engineSetup(Run &run)
{
    std::vector<double> secs;
    std::uint64_t digest = 0;
    const std::uint64_t seed0 = engineSeeds(run.seed, 1)[0];
    for (int i = 0; i < run.size.setups; ++i) {
        EngineOut scratch;
        const std::uint64_t t0 = nowNs();
        const std::uint64_t d = table3Round(seed0, scratch);
        secs.push_back(secondsSince(t0));
        run.check(i == 0 || d == digest, "warm-up digest does not repeat");
        digest = d;
    }
    run.e2e["setup_s"] = {median(secs), "s"};
    return digest;
}

/**
 * Launch @p reps default-flag servers one after another, each with
 * @p entries warmed, into @p out; returns the median set-up seconds.
 * Every launch must warm the same bodies.
 */
double
serverSetup(Run &run, std::size_t entries, int reps, Servers &out)
{
    const auto hot = hotSet(run.seed, entries);
    std::vector<double> secs;
    for (int i = 0; i < reps; ++i) {
        out.emplace_back();
        secs.push_back(launchServer(run, hot, {}, out.back()));
        run.check(out.back().warmBodies == out.front().warmBodies,
                  "warm-up bodies differ between set-ups");
    }
    return median(secs);
}

} // namespace

void
Run::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (failed <= 20)
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
    }
}

void
runWorkload(Run &run)
{
    const RunSize &sz = run.size;
    const bool sweep = run.workload == "sweep";
    const bool hot_primary = run.workload == "serve_hot";
    const bool mixed_primary = run.workload == "serve_mixed";

    // Set-up: the primary's timed set-up, then whatever else the run
    // drives. Server H takes the hot phase, server M the mixed phase,
    // so each one's peak RSS is its own phase's.
    std::uint64_t digest = 0;
    Servers hot_srvs, mixed_srvs;
    if (sweep)
        digest = engineSetup(run);
    const double hot_setup =
        serverSetup(run, kHotEntries, hot_primary ? sz.setups : 1, hot_srvs);
    const double mixed_setup = serverSetup(
        run, kMixedHotEntries, mixed_primary ? sz.setups : 1, mixed_srvs);
    if (hot_primary)
        run.e2e["setup_s"] = {hot_setup, "s"};
    if (mixed_primary)
        run.e2e["setup_s"] = {mixed_setup, "s"};
    // A budget extension needs the checkpoint its base left behind, so
    // the mixed phase keeps to one server: the last one set up.
    for (std::size_t i = 0; i + 1 < mixed_srvs.size(); ++i)
        mixed_srvs[i].proc->stop();
    Server &mixed_srv = mixed_srvs.back();
    for (const Servers *group : {&hot_srvs, &mixed_srvs})
        if (!group->back().proc->ok())
            return;

    // Interleave the three phases in blocks, one phase at a time: every
    // metric then samples the whole run, so a burst of outside load
    // hits a slice of each metric instead of all of one.
    LayerInputs layers;
    ThreadPoller hot_poller(run.trace ? hot_srvs.front().proc->pid() : 0);
    ThreadPoller mixed_poller(run.trace ? mixed_srv.proc->pid() : 0);
    EngineOut engine;
    HotOut hot = hotStart(run, hot_srvs, sz.hotPerClient);
    MixedOut mixed = mixedStart(run, mixed_srv, sz.mixed);
    for (std::size_t b = 0; b < kBlocks; ++b) {
        engineBlock(run, engine, b, kBlocks, digest);
        hotBlock(run, hot_srvs, hot, b, kBlocks);
        mixedBlock(run, mixed_srv, mixed, b, kBlocks);
    }
    hotFinish(run, hot_srvs, hot);
    std::vector<double> rss;
    if (sweep)
        rss.push_back(peakRssMb(::getpid()));
    if (hot_primary)
        for (const Server &srv : hot_srvs)
            rss.push_back(peakRssMb(srv.proc->pid()));
    if (mixed_primary)
        rss.push_back(peakRssMb(mixed_srv.proc->pid()));
    run.e2e["peak_rss_mb"] = {median(rss), "MB"};
    layers.threadsMax = std::max(hot_poller.stop(), mixed_poller.stop());
    if (run.trace)
        for (const Server *srv : {&hot_srvs.front(), &mixed_srv})
            layers.metricsText +=
                request(srv->proc->port(), "GET", "/metrics").body;
    for (Server &srv : hot_srvs)
        run.check(srv.proc->stop(), "campaign_server did not exit cleanly");
    run.check(mixed_srv.proc->stop(),
              "campaign_server did not exit cleanly");

    reportEngine(run, engine);
    reportHot(run, hot);
    reportMixed(run, mixed);
    verifyMixed(run, mixed);

    if (!run.trace)
        return;
    // ------------------------------------------------------ traced run
    // The primary phase again, traced; the per-layer numbers come from
    // that pass, the server's own histograms and in-process timings.
    layers.cacheHits = hot.cacheHits;
    layers.cacheMisses = hot.cacheMisses;
    layers.hitUs = scaled(hot.hitNs, 1e3);
    layers.hitRps = static_cast<double>(hot.hitNs.size()) / hot.wallSec;
    layers.mixedHitUs = scaled(mixed.hitNs, 1e3);
    layers.statusUs = scaled(hot.statusNs, 1e3);
    layers.scrapeMs = scaled(hot.scrapeNs, 1e6);
    layers.missMs = scaled(mixed.missNs, 1e6);
    layers.resumeMs = scaled(mixed.resumeNs, 1e6);
    for (const MixedStep &s : mixed.plan)
        if (s.kind == MixedKind::Resume) {
            layers.resumeTrials += static_cast<double>(s.req.trials);
            layers.resumeSaved += static_cast<double>(s.resumedFrom);
        }

    if (sweep) {
        EngineOut traced;
        traced.begin = nowNs();
        for (std::size_t b = 0; b < kBlocks; ++b)
            engineBlock(run, traced, b, kBlocks, digest);
        traced.end = nowNs();
        double covered = 0.0;
        for (const auto &[t0, t1] : traced.spans)
            covered += static_cast<double>(t1 - t0);
        layers.traceOverhead = run.e2e["years_per_s"].value /
                                   median(traced.yearsPerSec) -
                               1.0;
        layers.uncoveredShare =
            1.0 - covered / static_cast<double>(traced.end - traced.begin);
    } else {
        const std::string log = run.workdir + "/access." +
                                std::to_string(::getpid()) + ".jsonl";
        const std::string trace = run.workdir + "/trace." +
                                  std::to_string(::getpid()) + ".json";
        ::unlink(log.c_str());
        ::unlink(trace.c_str());
        const std::size_t warm = hot_primary ? kHotEntries : kMixedHotEntries;
        Servers traced(1);
        launchServer(run, hotSet(run.seed, warm),
                     {"--access-log", log, "--request-trace", trace},
                     traced.front());
        if (!traced.front().proc->ok())
            return;
        std::vector<std::uint64_t> client_ns;
        if (hot_primary) {
            HotOut t = hotStart(run, traced, sz.hotPerClient);
            for (std::size_t b = 0; b < kBlocks; ++b)
                hotBlock(run, traced, t, b, kBlocks);
            layers.traceOverhead = median(scaled(t.hitNs, 1e3)) /
                                       run.e2e["hit_p50_us"].value -
                                   1.0;
            client_ns = t.hitNs;
        } else {
            MixedOut t = mixedStart(run, traced.front(), sz.mixed);
            for (std::size_t b = 0; b < kBlocks; ++b)
                mixedBlock(run, traced.front(), t, b, kBlocks);
            layers.traceOverhead = median(scaled(t.missNs, 1e6)) /
                                       run.e2e["miss_p50_ms"].value -
                                   1.0;
            for (const auto *v : {&t.missNs, &t.resumeNs, &t.repeatNs,
                                  &t.hitNs})
                client_ns.insert(client_ns.end(), v->begin(), v->end());
        }
        run.check(traced.front().proc->stop(),
                  "traced campaign_server did not exit cleanly");
        layers.uncoveredShare = uncoveredShare(log, warm, client_ns);
        std::ifstream tr(trace);
        run.check(tr.good(), "traced server wrote no request trace");
    }
    measureLayers(run, layers);
}

} // namespace perfbench
