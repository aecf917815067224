/**
 * @file
 * The three workloads. Each run does a fixed amount of work, a pure
 * function of (workload, --seed, --seconds): a primary phase sized by
 * --seconds plus fixed, smaller slices of the other two workloads'
 * operations, so every run reports every end-to-end metric. The three
 * phases take turns in blocks and never run at the same time; the
 * primary phase is what the workload is for.
 *
 *   sweep        in-process runAnnualCampaign(): Table-3 rounds with
 *                campaign_sweep's options, then the 128/512-server
 *                scale phase.
 *   serve_hot    2 closed-loop clients of hot-cache hits, /v1/status,
 *                /v1/series and /metrics against campaign_server.
 *   serve_mixed  client A: misses, budget extensions and repeats;
 *                client B: hot hits with a fixed pause, while A runs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/annual_campaign.hh"
#include "gen.hh"
#include "stats.hh"

namespace perfbench
{

/** Everything one invocation needs and accumulates. */
struct Run
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    /** The campaign_server binary built beside this program. */
    std::string serverBinary;
    /** Scratch directory for port files, logs and traces. */
    std::string workdir;
    RunSize size;

    /** Operations attempted / failed (a failed check is a failed op). */
    long attempted = 0;
    long failed = 0;
    /** End-to-end metrics (--trace 0) and per-layer ones (--trace 1). */
    Metrics e2e;
    Metrics layer;

    /** Count one operation; record a failure with @p what. */
    void check(bool ok, const std::string &what);
};

/** campaign_sweep's scenario: @p config at @p servers specjbb servers
 *  behind its standing defense. */
bpsim::AnnualCampaignSpec sweepSpec(const bpsim::BackupConfigSpec &config,
                                    int servers);

/** campaign_sweep's campaign options (400-year budget, CI stop). */
bpsim::AnnualCampaignOptions sweepOptions(std::uint64_t seed);

/** Run @p run's workload; fills run.e2e (and run.layer when tracing). */
void runWorkload(Run &run);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
