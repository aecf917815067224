/**
 * @file
 * Seeded input generators of the benchmark. Every request and
 * scenario list is a pure function of the --seed argument and the
 * run size, drawn from the benchmark's own splitmix64 stream (not the
 * program's Rng), so a change to the simulator never changes what the
 * benchmark sends. The shapes that set a request's cost (trial
 * budgets, server counts, request-kind counts) are fixed multisets
 * that the seed only permutes; the seed picks configs, techniques,
 * scenario seeds and order. That keeps the work of a run comparable
 * across seeds, which is what the run-to-run spread is measured over.
 */

#ifndef PERFBENCH_GEN_HH
#define PERFBENCH_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** splitmix64: tiny, seedable, identical on every platform. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

  private:
    std::uint64_t state_;
};

/** Fisher-Yates shuffle driven by @p rng. */
template <typename T>
void
shuffle(std::vector<T> &v, SplitMix &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** One POST /v1/whatif scenario. */
struct WhatIf
{
    /** Table-3 name, or empty for the benchmark's custom config. */
    std::string config;
    /** Technique kind name (none, throttle, throttle_sleep, sleep). */
    std::string technique;
    int servers = 8;
    std::uint64_t trials = 20;
    std::uint64_t seed = 1;

    /** The canonical request body (fixed field order). */
    std::string body() const;
};

/** Warmed what-ifs of the hot-phase server and of the mixed-phase
 *  server (client B's keys). */
constexpr std::size_t kHotEntries = 16;
constexpr std::size_t kMixedHotEntries = 4;

/** The nine Table-3 configuration names, in table order. */
const std::vector<std::string> &table3Names();

/**
 * The warmed hot set: @p n small-budget what-ifs at 8 servers, with
 * seeds drawn from a range the miss generator never uses, so no hot
 * key can collide with a miss.
 */
std::vector<WhatIf> hotSet(std::uint64_t seed, std::size_t n);

/** What one serve_hot request asks for. */
enum class HotKind : std::uint8_t
{
    Hit,
    Status,
    Series,
    Metrics,
};

/** One request of a hot-phase client. */
struct HotReq
{
    HotKind kind = HotKind::Hit;
    /** Hot-set index for Hit. */
    std::uint32_t entry = 0;
};

/**
 * The hot phase: @p per_client requests for each of @p clients
 * closed-loop clients, with exactly 90% hits, 8% /v1/status, 1%
 * /v1/series and 1% /metrics per client in seed-shuffled order. Hits
 * are Zipf(1.1) over the client's own slice of the hot set (entries
 * i with i % clients == client), so two clients never race on one
 * key and no hit can coalesce with another.
 */
std::vector<std::vector<HotReq>> hotPlan(std::uint64_t seed,
                                         std::size_t hot_entries,
                                         std::size_t clients,
                                         std::size_t per_client);

/** What one serve_mixed client-A request is. */
enum class MixedKind : std::uint8_t
{
    /** A scenario never asked before. */
    Miss,
    /** A larger budget for an earlier scenario (checkpoint resume). */
    Resume,
    /** The exact request of an earlier step (a fresh cache hit). */
    Repeat,
};

/** One step of client A. */
struct MixedStep
{
    MixedKind kind = MixedKind::Miss;
    WhatIf req;
    /** Resume: the trial count the stored checkpoint holds. */
    std::uint64_t resumedFrom = 0;
    /** Repeat: the earlier step whose response must come back. */
    std::size_t repeatOf = 0;
};

/** Size of a client-A list (counts of each step kind). */
struct MixedSize
{
    std::size_t misses = 10;
    std::size_t resumes = 4;
    std::size_t repeats = 2;
};

/**
 * Client A's sequence: fresh misses over the Table-3 names plus one
 * custom config object, techniques {none, throttle, throttle_sleep,
 * sleep}, servers in 8..64 and budgets in 20..160 (fixed (budget,
 * servers) pairs the seed permutes); budget extensions of earlier
 * scenarios; exact repeats. Every resume and repeat refers to an
 * earlier step.
 */
std::vector<MixedStep> mixedPlan(std::uint64_t seed, const MixedSize &size);

/**
 * How much one run of a workload does: the primary phase scales with
 * --seconds, the secondary slices (short, sequential runs of the
 * other workloads' operations) are fixed.
 */
struct RunSize
{
    /** Repetitions of the set-up step (setup_s is their median). */
    int setups = 5;
    /** Engine: Table-3 rounds and scale-phase repetitions. */
    std::size_t engineRounds = 0;
    std::size_t scaleReps = 0;
    /** Hot phase: requests per client. */
    std::size_t hotPerClient = 0;
    /** Mixed phase: client-A list size (0 misses = phase skipped). */
    MixedSize mixed{0, 0, 0};
};

/** The size of one run of @p workload at @p seconds; throws
 *  std::invalid_argument for an unknown workload. */
RunSize runSize(const std::string &workload, int seconds);

/** Years per scale-phase campaign (the most any shape uses). */
constexpr std::size_t kScaleTrials = 16;

/** One outage of a scale-phase trace, in seconds. */
struct Outage
{
    double startSec = 0.0;
    double durationSec = 0.0;
};

/**
 * The yearly outage traces of scale-phase round @p round: @p trials
 * years of exactly three outages each (45 s, 8 min and 40 min, in
 * seed order), one per third of the year at a seed-drawn offset. A
 * 512-server year costs in proportion to its outage count, so the
 * engine's own Figure-1 draws (1 to 9 outages a year) would make a
 * four-year campaign's cost swing by 2x from seed to seed; fixed
 * counts keep the scale phase's work equal across seeds.
 */
std::vector<std::vector<Outage>> scaleTraces(std::uint64_t seed,
                                             std::size_t round,
                                             std::size_t trials);

/** Campaign seeds of the in-process engine phase, one per round. */
std::vector<std::uint64_t> engineSeeds(std::uint64_t seed,
                                       std::size_t rounds);

/**
 * Canonical text of every list a workload draws from @p seed at
 * @p seconds (the self-test compares these bytes).
 */
std::string dumpInputs(const std::string &workload, std::uint64_t seed,
                       int seconds);

} // namespace perfbench

#endif // PERFBENCH_GEN_HH
