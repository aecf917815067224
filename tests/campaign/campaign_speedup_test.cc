/**
 * @file
 * Parallel speedup of an annual campaign on many-core hosts. A wall-
 * clock ratio is only meaningful on an otherwise idle machine, so this
 * check is its own test binary, registered RUN_SERIAL: ctest never
 * runs it beside other tests.
 */

#include <gtest/gtest.h>

#include "campaign/thread_pool.hh"
#include "campaign_fixture.hh"

namespace bpsim
{
namespace
{

// Scaling check for many-core machines. On 8+ cores the 200-trial
// campaign must beat the serial baseline by >= 4x (the acceptance
// bar); 4-7 cores get a proportionally lower bar; below 4 cores the
// measurement is meaningless and the test skips.
TEST(AnnualCampaign, ParallelSpeedupOnManyCoreHosts)
{
    const int hw = WorkStealingPool::hardwareThreads();
    if (hw < 4)
        GTEST_SKIP() << "only " << hw << " hardware threads";

    AnnualCampaignOptions opts;
    opts.maxTrials = 200;
    opts.seed = 2014;

    opts.threads = 1;
    const auto serial = runAnnualCampaign(testSpec(), opts);
    opts.threads = hw;
    const auto parallel = runAnnualCampaign(testSpec(), opts);

    ASSERT_GT(serial.wallSeconds, 0.0);
    ASSERT_GT(parallel.wallSeconds, 0.0);
    const double speedup = serial.wallSeconds / parallel.wallSeconds;
    const double bar = hw >= 8 ? 4.0 : 2.0;
    EXPECT_GE(speedup, bar)
        << "serial " << serial.wallSeconds << " s vs parallel "
        << parallel.wallSeconds << " s on " << hw << " threads";
    EXPECT_EQ(fingerprint(serial), fingerprint(parallel));
}

} // namespace
} // namespace bpsim
