/**
 * @file
 * Tests for the campaign runner: strict in-order consumption,
 * deterministic early stop, progress cadence, and bit-identical
 * aggregates across thread counts (the acceptance gate for the
 * parallel engine). The parallel speedup check lives in
 * campaign_speedup_test.cc, which runs alone.
 */

#include <gtest/gtest.h>

#include <vector>

#include "campaign/runner.hh"
#include "campaign_fixture.hh"

namespace bpsim
{
namespace
{

TEST(CampaignRunner, ConsumesInStrictTrialOrder)
{
    constexpr std::uint64_t kN = 500;
    std::uint64_t expected = 0;
    CampaignOptions opts;
    opts.threads = 4;
    const auto oc = runCampaign<std::uint64_t>(
        kN, [](std::uint64_t id) { return id * 3; },
        [&](std::uint64_t id, std::uint64_t &&r) {
            EXPECT_EQ(id, expected++);
            EXPECT_EQ(r, id * 3);
            return true;
        },
        opts);
    EXPECT_EQ(oc.consumed, kN);
    EXPECT_FALSE(oc.stoppedEarly);
}

TEST(CampaignRunner, EarlyStopIsDeterministicAcrossThreadCounts)
{
    for (int threads : {1, 2, 4, 8}) {
        std::vector<std::uint64_t> seen;
        CampaignOptions opts;
        opts.threads = threads;
        const auto oc = runCampaign<std::uint64_t>(
            10000, [](std::uint64_t id) { return id; },
            [&](std::uint64_t id, std::uint64_t &&) {
                seen.push_back(id);
                return id != 37; // stop after consuming trial 37
            },
            opts);
        ASSERT_EQ(oc.consumed, 38u) << "threads=" << threads;
        ASSERT_TRUE(oc.stoppedEarly);
        ASSERT_EQ(seen.size(), 38u);
        for (std::uint64_t i = 0; i < seen.size(); ++i)
            ASSERT_EQ(seen[i], i);
    }
}

TEST(ParallelMap, PreservesOrder)
{
    const auto out = parallelMap<double>(
        1000, [](std::uint64_t i) { return static_cast<double>(i) * 0.5; },
        4);
    ASSERT_EQ(out.size(), 1000u);
    for (std::uint64_t i = 0; i < out.size(); ++i)
        ASSERT_DOUBLE_EQ(out[i], static_cast<double>(i) * 0.5);
}

// The acceptance gate: a >= 64-trial campaign aggregated with 1, 4,
// and hardware_concurrency() threads is byte-identical per seed.
TEST(AnnualCampaign, BitIdenticalAcrossThreadCounts)
{
    AnnualCampaignOptions opts;
    opts.maxTrials = 64;
    opts.seed = 20140301;

    opts.threads = 1;
    const auto serial = fingerprint(runAnnualCampaign(testSpec(), opts));
    ASSERT_FALSE(serial.empty());

    for (int threads : {4, WorkStealingPool::hardwareThreads()}) {
        opts.threads = threads;
        const auto par = fingerprint(runAnnualCampaign(testSpec(), opts));
        ASSERT_EQ(par.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            ASSERT_EQ(par[i], serial[i])
                << "field " << i << " differs at threads=" << threads;
        }
    }
}

TEST(AnnualCampaign, SameSeedSameResultsSameThreads)
{
    AnnualCampaignOptions opts;
    opts.maxTrials = 16;
    opts.seed = 99;
    opts.threads = 4;
    const auto a = fingerprint(runAnnualCampaign(testSpec(), opts));
    const auto b = fingerprint(runAnnualCampaign(testSpec(), opts));
    EXPECT_EQ(a, b);
}

TEST(AnnualCampaign, DifferentSeedsDiverge)
{
    AnnualCampaignOptions opts;
    opts.maxTrials = 16;
    opts.threads = 2;
    opts.seed = 1;
    const auto a = runAnnualCampaign(testSpec(), opts);
    opts.seed = 2;
    const auto b = runAnnualCampaign(testSpec(), opts);
    EXPECT_NE(a.downtimeMin.sum().value(), b.downtimeMin.sum().value());
}

TEST(AnnualCampaign, EarlyStopRespectsMinTrialsAndTolerance)
{
    AnnualCampaignOptions opts;
    opts.maxTrials = 200;
    opts.seed = 5;
    opts.threads = 2;
    opts.minTrials = 16;
    opts.ciRelTol = 1e9; // absurdly loose: stop at exactly minTrials
    const auto s = runAnnualCampaign(testSpec(), opts);
    EXPECT_EQ(s.trials, 16u);
    EXPECT_TRUE(s.stoppedEarly);
    EXPECT_EQ(s.planned, 200u);

    // And the early-stopped prefix matches a straight 16-trial run.
    AnnualCampaignOptions full;
    full.maxTrials = 16;
    full.seed = 5;
    full.threads = 1;
    const auto prefix = runAnnualCampaign(testSpec(), full);
    EXPECT_EQ(fingerprint(s), fingerprint(prefix));
}

TEST(AnnualCampaign, ProgressTicksAtCadenceAndOnStop)
{
    for (std::uint64_t batch : {0, 8}) {
        AnnualCampaignOptions opts;
        opts.maxTrials = 95;
        opts.seed = 11;
        opts.threads = 4;
        opts.batch = batch;
        opts.progressEvery = 10;
        // Callbacks are serialized, so a plain vector is safe (and the
        // TSan build would flag a concurrent push).
        std::vector<CampaignProgress> ticks;
        opts.progress = [&](const CampaignProgress &p) {
            ticks.push_back(p);
        };
        const auto consumed = [&ticks] {
            std::vector<std::uint64_t> v;
            for (const CampaignProgress &p : ticks) {
                EXPECT_EQ(p.total, 95u);
                EXPECT_EQ(p.stopped,
                          &p == &ticks.back() && p.consumed == 25);
                v.push_back(p.consumed);
            }
            ticks.clear();
            return v;
        };

        // Every multiple of 10, plus the final 95.
        runAnnualCampaign(testSpec(), opts);
        EXPECT_EQ(consumed(), (std::vector<std::uint64_t>{
                                  10, 20, 30, 40, 50, 60, 70, 80, 90, 95}))
            << "batch=" << batch;

        // An early stop ticks once more, at the stop point, stopped.
        opts.minTrials = 25;
        opts.ciRelTol = 1e9;
        EXPECT_EQ(runAnnualCampaign(testSpec(), opts).trials, 25u);
        EXPECT_EQ(consumed(), (std::vector<std::uint64_t>{10, 20, 25}))
            << "batch=" << batch;
    }
}

TEST(AnnualCampaign, CustomTrialBodies)
{
    AnnualCampaignOptions opts;
    opts.maxTrials = 32;
    opts.seed = 3;
    opts.threads = 2;
    const auto s = runAnnualCampaign(
        [](std::uint64_t id, Rng &rng) {
            AnnualResult r;
            r.downtimeMin = rng.nextDouble();
            r.losses = id % 4 == 0 ? 1 : 0;
            return r;
        },
        opts);
    EXPECT_EQ(s.trials, 32u);
    EXPECT_EQ(s.lossFreeTrials, 24u);
    EXPECT_DOUBLE_EQ(s.lossFree.fraction, 0.75);
    EXPECT_GT(s.downtimeMin.mean(), 0.0);
    EXPECT_LT(s.downtimeMin.mean(), 1.0);
}

} // namespace
} // namespace bpsim
