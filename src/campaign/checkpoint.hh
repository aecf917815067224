/**
 * @file
 * Campaign checkpoints for incremental trial reuse.
 *
 * A checkpoint is the shard file of trials [0, K) (campaign/shard.hh):
 * the exact aggregation state after the first K trials — ExactSum
 * limbs, t-digest centroids AND the unflushed buffer, verbatim
 * (flushing would change the future clustering trajectory) — plus the
 * campaign's obs deltas (counters, histogram buckets, incident
 * aggregate). Resuming from it and running trials [K, M) yields a
 * summary — and serialized JSON — bit-identical to a fresh M-trial
 * run, for any batch size and thread count on either side of the
 * boundary. That invariant is what lets the what-if server answer an
 * M-trial query by extending a cached K-trial campaign instead of
 * recomputing it from scratch (see docs/SERVICE.md "Incremental trial
 * reuse").
 *
 * Checkpoints are read back from disk caches that may be truncated,
 * bit-flipped, or written by another build, so they go through the
 * one defensive shard reader, which returns nullopt instead of
 * asserting. A checkpoint also embeds the producing buildId(); loaders
 * treat a foreign build as a miss, since floating-point trajectories
 * are only promised bit-stable within one binary.
 */

#ifndef BPSIM_CAMPAIGN_CHECKPOINT_HH
#define BPSIM_CAMPAIGN_CHECKPOINT_HH

#include <optional>
#include <ostream>
#include <string>

#include "campaign/annual_campaign.hh"
#include "campaign/shard.hh"

namespace bpsim
{

/**
 * The exact state of an annual campaign after its first `trials`
 * trials: a one-shard result covering [0, trials), without a wall
 * clock so that extending it reproduces a fresh run's bytes.
 */
using CampaignCheckpoint = ShardResult;

/** What one resumable campaign execution produced. */
struct ResumableOutcome
{
    /** The full campaign aggregate (identical to a fresh run). */
    AnnualCampaignSummary summary;
    /** State at the new boundary, ready to extend again or persist. */
    CampaignCheckpoint checkpoint;
    /** Trials actually simulated by this call (0 on a pure replay). */
    std::uint64_t executedTrials = 0;
    /** This call's obs evidence (its deltas alone, not @p from's). */
    ObsEvidence evidence;
};

/**
 * Run the scenario campaign — fresh when @p from is null, otherwise
 * extending the checkpointed state through trials
 * [from->trials, opts.maxTrials) — and capture the obs deltas of the
 * whole logical campaign into the returned checkpoint (@p from's plus
 * this run's). A fresh campaign is a resume from the empty state.
 *
 * Contract: @p from must come from the same (spec, seed) with
 * identical early-stop options. If the stop rule already holds at the
 * boundary — @p from stopped early, or its budget was exactly its
 * stopping point, which masks the stop — no trials run and the summary
 * is the replayed fresh-run outcome (planned rewritten to
 * opts.maxTrials). Must not run concurrently with another campaign:
 * withObsDeltas() brackets the run, exactly like shard execution.
 */
ResumableOutcome runResumableCampaign(const AnnualCampaignSpec &spec,
                                      const AnnualCampaignOptions &opts,
                                      const CampaignCheckpoint *from = nullptr);

/** Emit one checkpoint: its shard file. */
inline void
writeCheckpointJson(std::ostream &os, const CampaignCheckpoint &c)
{
    writeShardJson(os, c);
}

/**
 * Parse a checkpoint document: a shard file whose range starts at
 * trial 0. Returns nullopt — with a reason in @p error when wired — on
 * anything else or anything malformed. Never asserts on untrusted
 * input.
 */
inline std::optional<CampaignCheckpoint>
readCheckpointJson(const std::string &text, std::string *error = nullptr)
{
    auto shard = readShardJson(text, error);
    if (shard && shard->spec.lo != 0) {
        if (error)
            *error = "not a campaign checkpoint (range must start at 0)";
        return std::nullopt;
    }
    return shard;
}

} // namespace bpsim

#endif // BPSIM_CAMPAIGN_CHECKPOINT_HH
