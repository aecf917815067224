/**
 * @file
 * Per-layer numbers of the traced run (--trace 1): the server's own
 * phase histograms and access log, the client-side samples of the
 * untraced pass, and timed in-process calls into each module's public
 * functions (outage, core, campaign, obs, service).
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <sys/types.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace perfbench
{

struct Run;

/** Polls a process's thread count every few milliseconds. */
class ThreadPoller
{
  public:
    /** Poll @p pid (0 = do nothing). */
    explicit ThreadPoller(pid_t pid);
    ~ThreadPoller();
    ThreadPoller(const ThreadPoller &) = delete;
    ThreadPoller &operator=(const ThreadPoller &) = delete;

    /** Stop polling; the largest count seen. */
    int stop();

  private:
    std::atomic<bool> stop_{false};
    std::atomic<int> max_{0};
    std::thread thread_;
};

/** What the workload hands to the layer measurements. */
struct LayerInputs
{
    int threadsMax = 0;
    /** /metrics of the untraced server, just before it stopped. */
    std::string metricsText;
    /** Client-side samples of the untraced pass. */
    std::vector<double> hitUs, mixedHitUs, statusUs, scrapeMs, missMs,
        resumeMs;
    /** Completed hits per second of hot phase. */
    double hitRps = 0.0;
    /** Server cache counters over the hot phase. */
    double cacheHits = 0.0;
    double cacheMisses = 0.0;
    /** Trials requested by resumes, and trials their checkpoints held. */
    double resumeTrials = 0.0;
    double resumeSaved = 0.0;
    double traceOverhead = 0.0;
    double uncoveredShare = 0.0;
};

/**
 * Share of client-measured latency that no server phase span covers:
 * 1 - (sum of the access log's per-request phase times) / (sum of
 * @p client_ns), over the what-if lines after the first @p warm ones.
 */
double uncoveredShare(const std::string &access_log, std::size_t warm,
                      const std::vector<std::uint64_t> &client_ns);

/** Fill run.layer with every per-layer metric. */
void measureLayers(Run &run, const LayerInputs &in);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
