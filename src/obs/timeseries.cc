#include "obs/timeseries.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <tuple>

#include "obs/trace.hh"

namespace bpsim
{
namespace obs
{

namespace
{

/** Simulated time between samples; 0 disables the sampler. */
std::atomic<Time> g_cadence{0};

/** One thread's sample buffer (same publish protocol as the trace
 *  rings: owner-only appends, release-published size). */
struct SampleRing
{
    std::vector<SignalSample> rows;
    std::atomic<std::size_t> published{0};
};

/** Never-destroyed ring registry (see obs/trace.cc for why). */
std::mutex g_rings_m;
std::vector<SampleRing *> &
rings()
{
    static std::vector<SampleRing *> *const r =
        new std::vector<SampleRing *>;
    return *r;
}

SampleRing *
localRing()
{
    thread_local SampleRing *ring = [] {
        auto *r = new SampleRing; // owned by rings(), never destroyed
        std::lock_guard<std::mutex> lk(g_rings_m);
        rings().push_back(r);
        return r;
    }();
    return ring;
}

bool
rowLess(const SignalSample &x, const SignalSample &y)
{
    return std::make_tuple(x.trial, static_cast<int>(x.signal), x.t) <
           std::make_tuple(y.trial, static_cast<int>(y.signal), y.t);
}

} // namespace

const char *
signalName(SignalId s)
{
    switch (s) {
      case SignalId::LoadW: return "load_w";
      case SignalId::UtilityW: return "utility_w";
      case SignalId::BatteryW: return "battery_w";
      case SignalId::DgW: return "dg_w";
      case SignalId::BatterySoc: return "battery_soc";
      case SignalId::ServersActive: return "servers_active";
      case SignalId::TechPhase: return "tech_phase";
      case SignalId::ClusterPowerW: return "cluster_power_w";
      case SignalId::QueueDepth: return "queue_depth";
    }
    return "unknown";
}

void
setSampleCadence(Time cadence)
{
    g_cadence.store(cadence < 0 ? 0 : cadence,
                    std::memory_order_relaxed);
}

Time
sampleCadence()
{
    return g_cadence.load(std::memory_order_relaxed);
}

TimeSeriesSink &
TimeSeriesSink::instance()
{
    static TimeSeriesSink sink;
    return sink;
}

void
TimeSeriesSink::emit(SignalId signal, Time t, double value)
{
    if (!enabled())
        return;
    SampleRing *ring = localRing();
    SignalSample row;
    row.trial = currentTrial();
    row.t = t;
    row.signal = signal;
    row.value = value;
    ring->rows.push_back(row);
    ring->published.store(ring->rows.size(), std::memory_order_release);
}

std::vector<SignalSample>
TimeSeriesSink::drain()
{
    std::vector<SignalSample> out;
    {
        std::lock_guard<std::mutex> lk(g_rings_m);
        for (SampleRing *r : rings()) {
            const std::size_t n =
                r->published.load(std::memory_order_acquire);
            out.insert(out.end(), r->rows.begin(),
                       r->rows.begin() +
                           static_cast<std::ptrdiff_t>(n));
            r->rows.clear();
            r->published.store(0, std::memory_order_release);
        }
    }
    std::sort(out.begin(), out.end(), rowLess);
    return out;
}

void
TimeSeriesSink::clear()
{
    std::lock_guard<std::mutex> lk(g_rings_m);
    for (SampleRing *r : rings()) {
        r->rows.clear();
        r->published.store(0, std::memory_order_release);
    }
}

std::vector<SignalSample>
drainSampledTrials(std::uint64_t first)
{
    auto rows = TimeSeriesSink::instance().drain();
    std::erase_if(rows, [first](const SignalSample &r) {
        return r.trial < first || r.trial - first >= kSampledTrials;
    });
    return rows;
}

TimeSeriesStore
TimeSeriesStore::fromSamples(std::vector<SignalSample> rows)
{
    if (!std::is_sorted(rows.begin(), rows.end(), rowLess))
        std::sort(rows.begin(), rows.end(), rowLess);
    TimeSeriesStore s;
    s.trials_.reserve(rows.size());
    s.times_.reserve(rows.size());
    s.signals_.reserve(rows.size());
    s.values_.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SignalSample &r = rows[i];
        if (s.channels_.empty() ||
            s.channels_.back().trial != r.trial ||
            s.channels_.back().signal != r.signal) {
            Channel c;
            c.trial = r.trial;
            c.signal = r.signal;
            c.begin = i;
            s.channels_.push_back(c);
        }
        s.channels_.back().end = i + 1;
        s.trials_.push_back(r.trial);
        s.times_.push_back(r.t);
        s.signals_.push_back(r.signal);
        s.values_.push_back(r.value);
    }
    return s;
}

std::vector<SeriesPoint>
lttb(const std::vector<SeriesPoint> &points, std::size_t max_points)
{
    const std::size_t n = points.size();
    if (max_points >= n || n <= 2)
        return points;
    if (max_points < 3) {
        // Degenerate budget: keep the endpoints only.
        return {points.front(), points.back()};
    }

    std::vector<SeriesPoint> out;
    out.reserve(max_points);
    out.push_back(points.front());

    // Interior points are split into max_points-2 buckets; from each
    // bucket keep the point forming the largest triangle with the
    // previously kept point and the next bucket's average.
    const std::size_t buckets = max_points - 2;
    const double span =
        static_cast<double>(n - 2) / static_cast<double>(buckets);
    std::size_t prev = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
        const std::size_t lo =
            1 + static_cast<std::size_t>(
                    std::floor(static_cast<double>(b) * span));
        std::size_t hi =
            1 + static_cast<std::size_t>(
                    std::floor(static_cast<double>(b + 1) * span));
        hi = std::min(hi, n - 1);

        // Average of the *next* bucket (or the final point).
        const std::size_t nlo = hi;
        const std::size_t nhi =
            b + 2 < buckets
                ? std::min(
                      n - 1,
                      1 + static_cast<std::size_t>(std::floor(
                              static_cast<double>(b + 2) * span)))
                : n;
        double avg_t = 0.0, avg_v = 0.0;
        const std::size_t nn = nhi > nlo ? nhi - nlo : 1;
        for (std::size_t i = nlo; i < nhi; ++i) {
            avg_t += static_cast<double>(points[i].t);
            avg_v += points[i].value;
        }
        if (nhi > nlo) {
            avg_t /= static_cast<double>(nn);
            avg_v /= static_cast<double>(nn);
        } else {
            avg_t = static_cast<double>(points[n - 1].t);
            avg_v = points[n - 1].value;
        }

        const double pt = static_cast<double>(points[prev].t);
        const double pv = points[prev].value;
        double best_area = -1.0;
        std::size_t best = lo;
        for (std::size_t i = lo; i < hi; ++i) {
            const double area = std::abs(
                (pt - avg_t) *
                    (points[i].value - pv) -
                (pt - static_cast<double>(points[i].t)) *
                    (avg_v - pv));
            if (area > best_area) {
                best_area = area;
                best = i;
            }
        }
        out.push_back(points[best]);
        prev = best;
    }
    out.push_back(points.back());
    return out;
}

} // namespace obs
} // namespace bpsim
