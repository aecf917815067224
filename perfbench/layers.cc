#include "layers.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <sstream>

#include "campaign/annual_campaign.hh"
#include "campaign/batch_kernel.hh"
#include "campaign/checkpoint.hh"
#include "campaign/json.hh"
#include "campaign/thread_pool.hh"
#include "client.hh"
#include "core/annual.hh"
#include "core/backup_config.hh"
#include "obs/incident.hh"
#include "obs/obs.hh"
#include "outage/trace.hh"
#include "service/alerts.hh"
#include "service/service.hh"
#include "workload/profile.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace bpsim;

namespace
{

/** One simulated year, as the campaign engine draws its traces. */
constexpr Time kYear = 365LL * 24 * kHour;

/** Mean nanoseconds per call of @p fn over @p reps calls. */
template <typename Fn>
double
meanNs(std::size_t reps, Fn &&fn)
{
    const std::uint64_t t0 = nowNs();
    for (std::size_t i = 0; i < reps; ++i)
        fn(i);
    return static_cast<double>(nowNs() - t0) / static_cast<double>(reps);
}

/** Median nanoseconds of @p reps timed calls of @p fn. */
template <typename Fn>
double
medianNs(std::size_t reps, Fn &&fn)
{
    std::vector<double> ns;
    for (std::size_t i = 0; i < reps; ++i) {
        const std::uint64_t t0 = nowNs();
        fn(i);
        ns.push_back(static_cast<double>(nowNs() - t0));
    }
    return median(ns);
}

/**
 * Medians (µs) of bpsim_service_request_seconds{endpoint,phase} in an
 * OpenMetrics text, summed over status labels, read off the
 * cumulative buckets with linear interpolation inside the bucket.
 */
std::map<std::string, double>
phaseMediansUs(const std::string &text)
{
    // (endpoint.phase) -> le -> cumulative count
    std::map<std::string, std::map<double, double>> cum;
    std::istringstream in(text);
    std::string line;
    const std::string prefix = "bpsim_service_request_seconds_bucket{";
    const auto label = [](const std::string &l, const char *k) {
        const std::string key = std::string(k) + "=\"";
        const std::size_t a = l.find(key);
        if (a == std::string::npos)
            return std::string();
        const std::size_t b = l.find('"', a + key.size());
        return l.substr(a + key.size(), b - a - key.size());
    };
    while (std::getline(in, line)) {
        if (line.compare(0, prefix.size(), prefix) != 0)
            continue;
        const std::string le = label(line, "le");
        const double bound =
            le == "+Inf" ? 1e300 : std::strtod(le.c_str(), nullptr);
        const std::size_t sp = line.rfind(' ');
        cum[label(line, "endpoint") + "." + label(line, "phase")][bound] +=
            std::strtod(line.c_str() + sp + 1, nullptr);
    }
    std::map<std::string, double> out;
    for (const auto &[name, buckets] : cum) {
        const double total = buckets.rbegin()->second;
        double lo = 0.0, below = 0.0;
        for (const auto &[bound, count] : buckets) {
            if (count >= total / 2.0 && total > 0.0) {
                const double hi = bound >= 1e300 ? lo : bound;
                const double frac =
                    count > below ? (total / 2.0 - below) / (count - below)
                                  : 0.0;
                out[name] = (lo + (hi - lo) * frac) * 1e6;
                break;
            }
            lo = bound;
            below = count;
        }
    }
    return out;
}

} // namespace

ThreadPoller::ThreadPoller(pid_t pid)
{
    if (pid <= 0)
        return;
    thread_ = std::thread([this, pid] {
        while (!stop_.load(std::memory_order_acquire)) {
            const int n = threadCount(pid);
            if (n > max_.load(std::memory_order_relaxed))
                max_.store(n, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    });
}

ThreadPoller::~ThreadPoller()
{
    stop();
}

int
ThreadPoller::stop()
{
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable())
        thread_.join();
    return max_.load(std::memory_order_relaxed);
}

double
uncoveredShare(const std::string &access_log, std::size_t warm,
               const std::vector<std::uint64_t> &client_ns)
{
    std::ifstream in(access_log);
    std::string line;
    std::size_t seen = 0;
    double covered_us = 0.0;
    while (std::getline(in, line)) {
        if (line.find("\"endpoint\":\"whatif\"") == std::string::npos ||
            seen++ < warm)
            continue;
        const std::size_t a = line.find("\"phases\":{");
        const std::size_t b = line.find('}', a);
        if (a == std::string::npos || b == std::string::npos)
            continue;
        // "phases":{"read":38,"parse":73,...}
        for (std::size_t p = line.find(':', a + 10); p < b;
             p = line.find(':', p + 1))
            covered_us += std::strtod(line.c_str() + p + 1, nullptr);
    }
    double total_ns = 0.0;
    for (std::uint64_t v : client_ns)
        total_ns += static_cast<double>(v);
    return total_ns > 0.0 ? 1.0 - covered_us * 1e3 / total_ns : 0.0;
}

void
measureLayers(Run &run, const LayerInputs &in)
{
    Metrics &m = run.layer;
    const auto us = [](double ns) { return ns / 1e3; };
    const std::uint64_t seed = run.seed;

    // ------------------------------------------- client-side samples
    const double hit_p50 = median(in.hitUs);
    m["hit_p90_us"] = {quantile(in.hitUs, 0.9), "us"};
    m["hit_rps"] = {in.hitRps, "1/s"};
    m["tail.hit_p99_us"] = {quantile(in.hitUs, 0.99), "us"};
    m["tail.status_p99_us"] = {quantile(in.statusUs, 0.99), "us"};
    m["tail.scrape_p90_ms"] = {quantile(in.scrapeMs, 0.9), "ms"};
    m["tail.miss_p90_ms"] = {quantile(in.missMs, 0.9), "ms"};
    m["tail.resume_max_ms"] = {quantile(in.resumeMs, 1.0), "ms"};
    m["tail.mixed_hit_p90_ms"] = {quantile(in.mixedHitUs, 0.9) / 1e3, "ms"};
    std::size_t blocked = 0;
    for (double v : in.mixedHitUs)
        blocked += v > 10.0 * hit_p50 ? 1 : 0;
    m["service.hit_blocked_share"] = {
        in.mixedHitUs.empty()
            ? 0.0
            : static_cast<double>(blocked) /
                  static_cast<double>(in.mixedHitUs.size()),
        "ratio"};
    m["service.cache_hit_ratio"] = {
        in.cacheHits / std::max(1.0, in.cacheHits + in.cacheMisses),
        "ratio"};
    m["service.threads_max"] = {static_cast<double>(in.threadsMax),
                                "count"};
    m["campaign.resume_trials_saved_ratio"] = {
        in.resumeTrials > 0 ? in.resumeSaved / in.resumeTrials : 0.0,
        "ratio"};
    m["trace.overhead_ratio"] = {in.traceOverhead, "ratio"};
    m["trace.uncovered_share"] = {in.uncoveredShare, "ratio"};

    // ------------------------------------------ server phase histograms
    const auto phases = phaseMediansUs(in.metricsText);
    const char *const whatif_phases[] = {"read",     "parse",    "cache_mem",
                                         "checkpoint", "campaign", "alerts",
                                         "serialize", "write"};
    for (const char *p : whatif_phases) {
        const auto it = phases.find(std::string("whatif.") + p);
        m[std::string("service.phase.whatif.") + p + "_us"] = {
            it == phases.end() ? 0.0 : it->second, "us"};
    }
    for (const char *ep : {"status", "metrics"})
        for (const char *p : {"read", "serialize", "write"}) {
            const auto it = phases.find(std::string(ep) + "." + p);
            m[std::string("service.phase.") + ep + "." + p + "_us"] = {
                it == phases.end() ? 0.0 : it->second, "us"};
        }

    // ----------------------------------------------------------- outage
    const auto gen = OutageTraceGenerator::figure1();
    std::vector<std::vector<OutageEvent>> traces(20000);
    double events = 0.0;
    const double trace_ns = meanNs(traces.size(), [&](std::size_t i) {
        Rng rng = Rng::stream(seed, i);
        traces[i] = gen.generate(rng, kYear);
    });
    for (const auto &t : traces)
        events += static_cast<double>(t.size());
    m["outage.trace_us_per_year"] = {us(trace_ns), "us"};
    m["outage.events_per_year"] = {events / traces.size(), "count"};

    // ------------------------------------------------------------- core
    const AnnualSimulator sim;
    const auto large = sweepSpec(largeEUpsConfig(), 8);
    const auto yearUs = [&](int servers, std::size_t years) {
        const auto spec = sweepSpec(largeEUpsConfig(), servers);
        return us(meanNs(years, [&](std::size_t i) {
            const auto r = sim.runYear(spec.profile, spec.nServers,
                                       spec.technique, spec.config,
                                       traces[i]);
            (void)r;
        }));
    };
    const double n8 = yearUs(8, 400);
    const double n128 = yearUs(128, 12);
    const double n512 = yearUs(512, 2);
    m["core.year_us.n8"] = {n8, "us"};
    m["core.year_us.n128"] = {n128, "us"};
    m["core.year_us.n512"] = {n512, "us"};
    m["core.server_year_ratio.n512_n8"] = {(n512 / 512.0) / (n8 / 8.0),
                                           "ratio"};
    {
        obs::setEnabled(true);
        auto &counter = obs::Registry::global().counter("sim.events_processed");
        const std::uint64_t before = counter.value();
        for (std::size_t i = 0; i < 200; ++i)
            sim.runYear(large.profile, large.nServers, large.technique,
                        large.config, traces[i]);
        m["sim.events_per_year"] = {
            static_cast<double>(counter.value() - before) / 200.0, "count"};
        obs::setEnabled(false);
        obs::TraceSink::instance().clear();
        obs::TimeSeriesSink::instance().clear();
    }

    // --------------------------------------------------------- campaign
    {
        AnnualCampaignOptions o;
        o.maxTrials = 200000;
        o.seed = seed;
        const std::uint64_t t0 = nowNs();
        runAnnualCampaign(
            AnnualTrialFn(
                [](std::uint64_t, Rng &) { return AnnualResult{}; }),
            o);
        m["campaign.overhead_us_per_trial"] = {
            us(static_cast<double>(nowNs() - t0) / o.maxTrials), "us"};
    }
    {
        std::atomic<std::uint64_t> busy{0};
        AnnualCampaignOptions o;
        o.maxTrials = 2000;
        o.seed = seed;
        const std::uint64_t t0 = nowNs();
        runAnnualCampaign(
            AnnualTrialFn([&](std::uint64_t, Rng &rng) {
                const std::uint64_t b = nowNs();
                const auto ev = gen.generate(rng, kYear);
                const auto r = sim.runYear(large.profile, large.nServers,
                                           large.technique, large.config,
                                           ev);
                busy.fetch_add(nowNs() - b, std::memory_order_relaxed);
                return r;
            }),
            o);
        const double wall = static_cast<double>(nowNs() - t0);
        m["campaign.pool_busy_ratio"] = {
            static_cast<double>(busy.load()) /
                (wall * WorkStealingPool::hardwareThreads()),
            "ratio"};
    }
    {
        // Table-3 round, scalar vs batch 64: same bytes, timed.
        std::size_t eligible = 0;
        std::string scalar_docs, batch_docs;
        double scalar_ns = 0.0, batch_ns = 0.0;
        for (const auto &config : table3Configs()) {
            const auto spec = sweepSpec(config, 8);
            const BatchAnnualKernel kernel(spec.profile, spec.nServers,
                                           spec.technique, spec.config);
            eligible += kernel.fastPathEligible() ? 1 : 0;
            AnnualCampaignOptions o = sweepOptions(seed);
            CampaignJsonOptions j;
            j.includeTiming = false;
            for (std::uint64_t batch : {0, 64}) {
                o.batch = batch;
                const std::uint64_t t0 = nowNs();
                const auto s = runAnnualCampaign(spec, o);
                (batch == 0 ? scalar_ns : batch_ns) +=
                    static_cast<double>(nowNs() - t0);
                std::ostringstream os;
                writeCampaignJson(os, s, j);
                (batch == 0 ? scalar_docs : batch_docs) += os.str();
            }
        }
        run.check(scalar_docs == batch_docs,
                  "batch-64 Table-3 round differs from the scalar one");
        m["campaign.batch_speedup"] = {scalar_ns / batch_ns, "ratio"};
        m["campaign.batch_eligible_share"] = {
            static_cast<double>(eligible) / table3Configs().size(), "ratio"};
    }
    {
        AnnualCampaignOptions o;
        o.maxTrials = 40;
        o.seed = seed;
        const auto outcome = runResumableCampaign(large, o, nullptr);
        CampaignJsonOptions j;
        j.includeTiming = false;
        m["campaign.json_write_us"] = {
            us(medianNs(500,
                        [&](std::size_t) {
                            std::ostringstream os;
                            writeCampaignJson(os, outcome.summary, j);
                        })),
            "us"};
        std::string text;
        m["campaign.checkpoint_write_us"] = {
            us(medianNs(200,
                        [&](std::size_t) {
                            std::ostringstream os;
                            writeCheckpointJson(os, outcome.checkpoint);
                            text = os.str();
                        })),
            "us"};
        m["campaign.checkpoint_bytes"] = {static_cast<double>(text.size()),
                                          "bytes"};
        bool parsed = true;
        m["campaign.checkpoint_read_us"] = {
            us(medianNs(200,
                        [&](std::size_t) {
                            parsed = parsed && readCheckpointJson(text);
                        })),
            "us"};
        run.check(parsed, "checkpoint did not read back");
    }

    // -------------------------------------------------------------- obs
    {
        // The server's miss path with the alert rule book armed (hourly
        // sampling, sinks drained, incidents built, rules evaluated)
        // against the same campaign with obs off, single-threaded.
        service::WhatIfRequest req;
        req.spec = large;
        req.opts.maxTrials = 20;
        req.opts.seed = seed;
        req.opts.threads = 1;
        const double trials = static_cast<double>(req.opts.maxTrials);
        const std::uint64_t t_off = nowNs();
        const std::string off_body = service::runWhatIf(req);
        const double off_ns = static_cast<double>(nowNs() - t_off);

        obs::setEnabled(true);
        const Time cadence = obs::sampleCadence();
        obs::setSampleCadence(fromHours(1.0));
        obs::TraceSink::instance().clear();
        obs::TimeSeriesSink::instance().clear();
        service::AlertEngine alerts(service::defaultAlertRules());
        const std::uint64_t t_on = nowNs();
        const auto before = obs::Registry::global().counterSnapshot();
        const std::string on_body = service::runWhatIf(req);
        const auto events = obs::TraceSink::instance().drain();
        auto samples = obs::TimeSeriesSink::instance().drain();
        const double recorded = static_cast<double>(samples.size());
        samples.erase(std::remove_if(samples.begin(), samples.end(),
                                     [](const obs::SignalSample &s) {
                                         return s.trial >= 4;
                                     }),
                      samples.end());
        const double used = static_cast<double>(samples.size());
        const auto store = obs::TimeSeriesStore::fromSamples(std::move(samples));
        const auto incidents = obs::buildIncidentReport(events);
        const auto delta = obs::subtractCounters(
            obs::Registry::global().counterSnapshot(), before);
        alerts.evaluate(&store, &delta, &incidents);
        const double on_ns = static_cast<double>(nowNs() - t_on);
        obs::setSampleCadence(cadence);
        obs::setEnabled(false);
        run.check(on_body == off_body,
                  "what-if body changes with obs armed");
        m["obs.year_us.alerts_armed"] = {us(on_ns / trials), "us"};
        m["obs.alerts_overhead_ratio"] = {on_ns / off_ns, "ratio"};
        m["obs.samples_per_trial"] = {recorded / trials, "count"};
        m["obs.samples_used_ratio"] = {recorded > 0 ? used / recorded : 0.0,
                                       "ratio"};
        m["obs.trace_events_per_trial"] = {
            static_cast<double>(events.size()) / trials, "count"};
    }

    // ---------------------------------------------------------- service
    {
        service::ServiceOptions opts;
        opts.evaluateAlerts = false;
        opts.history.samplerThread = false;
        service::CampaignService svc(opts);
        const auto hot = hotSet(seed, 16);
        std::vector<service::HttpRequest> reqs;
        for (const WhatIf &w : hot) {
            service::HttpRequest r;
            r.method = "POST";
            r.target = "/v1/whatif";
            r.body = w.body();
            run.check(svc.handle(r).status == 200,
                      "in-process warm-up what-if failed");
            reqs.push_back(r);
        }
        bool hits_ok = true;
        const double handle_ns = medianNs(4000, [&](std::size_t i) {
            hits_ok = hits_ok && svc.handle(reqs[i % reqs.size()]).status == 200;
        });
        run.check(hits_ok, "in-process hit failed");
        m["service.handle_hit_us"] = {us(handle_ns), "us"};
        m["service.socket_share"] = {
            hit_p50 > 0 ? 1.0 - us(handle_ns) / hit_p50 : 0.0, "ratio"};

        service::HttpRequest scrape;
        scrape.method = "GET";
        scrape.target = "/metrics";
        std::string text;
        m["obs.metrics_render_us"] = {
            us(medianNs(200,
                        [&](std::size_t) { text = svc.handle(scrape).body; })),
            "us"};
        m["obs.metrics_lines"] = {
            static_cast<double>(std::count(text.begin(), text.end(), '\n')),
            "count"};
        m["obs.history_tick_us"] = {
            us(medianNs(200, [&](std::size_t) { svc.sampleHistoryOnce(); })),
            "us"};

        const std::string raw = "POST /v1/whatif HTTP/1.1\r\nHost: "
                                "127.0.0.1\r\nContent-Type: application/"
                                "json\r\nContent-Length: " +
                                std::to_string(reqs[0].body.size()) +
                                "\r\nConnection: close\r\n\r\n" +
                                reqs[0].body;
        bool http_ok = true;
        m["service.http_parse_us"] = {
            us(meanNs(50000,
                      [&](std::size_t) {
                          service::HttpRequest out;
                          http_ok = http_ok && service::parseHttpRequest(raw, out);
                      })),
            "us"};
        run.check(http_ok, "HTTP request did not parse");
        bool parse_ok = true;
        m["service.whatif_parse_us"] = {
            us(meanNs(20000,
                      [&](std::size_t i) {
                          const auto j = parseJson(reqs[i % reqs.size()].body);
                          parse_ok = parse_ok && j &&
                                     service::parseWhatIfRequest(*j);
                      })),
            "us"};
        run.check(parse_ok, "what-if body did not parse");

        service::ResultCache cache(256, nullptr, "perfbench.cache");
        std::vector<std::string> keys;
        for (int i = 0; i < 256; ++i) {
            keys.push_back("whatif.v1|bench|" + std::to_string(i));
            cache.put(keys.back(), std::string(1400, 'x'));
        }
        bool cache_ok = true;
        m["service.cache_get_us"] = {
            us(meanNs(100000,
                      [&](std::size_t i) {
                          cache_ok = cache_ok &&
                                     cache.get(keys[(i * 7) % keys.size()]);
                      })),
            "us"};
        run.check(cache_ok, "cache lookup missed");
    }
}

} // namespace perfbench
