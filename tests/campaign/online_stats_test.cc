/**
 * @file
 * Tests for the online campaign statistics: Wilson binomial intervals
 * and the per-metric aggregate.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "campaign/online_stats.hh"

namespace bpsim
{
namespace
{

TEST(Wilson, BracketsTheObservedFraction)
{
    const auto ci = wilsonInterval(90, 100);
    EXPECT_DOUBLE_EQ(ci.fraction, 0.9);
    EXPECT_LT(ci.lo, 0.9);
    EXPECT_GT(ci.hi, 0.9);
    EXPECT_NEAR(ci.lo, 0.825, 0.01); // textbook value for 90/100 @95%
    EXPECT_NEAR(ci.hi, 0.944, 0.01);
}

TEST(Wilson, BehavesAtTheBoundaries)
{
    const auto all = wilsonInterval(50, 50);
    EXPECT_DOUBLE_EQ(all.fraction, 1.0);
    EXPECT_DOUBLE_EQ(all.hi, 1.0);
    EXPECT_LT(all.lo, 1.0);
    EXPECT_GT(all.lo, 0.9); // 50/50 is strong evidence

    const auto none = wilsonInterval(0, 50);
    EXPECT_DOUBLE_EQ(none.fraction, 0.0);
    EXPECT_DOUBLE_EQ(none.lo, 0.0);
    EXPECT_GT(none.hi, 0.0);
    EXPECT_LT(none.hi, 0.1);

    const auto empty = wilsonInterval(0, 0);
    EXPECT_DOUBLE_EQ(empty.fraction, 0.0);
    EXPECT_DOUBLE_EQ(empty.lo, 0.0);
    EXPECT_DOUBLE_EQ(empty.hi, 0.0);
}

TEST(Wilson, NarrowsWithMoreTrials)
{
    const auto small = wilsonInterval(9, 10);
    const auto large = wilsonInterval(900, 1000);
    EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
}

TEST(MergingMetric, CombinesMomentsAndQuantiles)
{
    MergingMetric m;
    for (int i = 1; i <= 1000; ++i)
        m.add(static_cast<double>(i));
    EXPECT_EQ(m.count(), 1000u);
    EXPECT_DOUBLE_EQ(m.mean(), 500.5);
    EXPECT_DOUBLE_EQ(m.min(), 1.0);
    EXPECT_DOUBLE_EQ(m.max(), 1000.0);
    EXPECT_NEAR(m.p50(), 500.5, 15.0);
    EXPECT_NEAR(m.p95(), 950.0, 15.0);
    EXPECT_NEAR(m.p99(), 990.0, 15.0);
}

TEST(MergingMetric, MeanCiHalfWidthMatchesFormula)
{
    MergingMetric m;
    for (int i = 0; i < 100; ++i)
        m.add(i % 2 == 0 ? 0.0 : 1.0);
    // Population stddev 0.5 over n = 100: z * sqrt(0.25 / 100).
    EXPECT_DOUBLE_EQ(m.stddev(), 0.5);
    EXPECT_DOUBLE_EQ(m.meanCiHalfWidth(), 1.96 * std::sqrt(0.25 / 100.0));
    EXPECT_EQ(m.meanCiHalfWidth(),
              meanCiHalfWidth(100, m.sum().value(), m.sumSq().value()));

    MergingMetric one;
    one.add(5.0);
    EXPECT_DOUBLE_EQ(one.meanCiHalfWidth(), 0.0);
}

} // namespace
} // namespace bpsim
