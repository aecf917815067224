/**
 * @file
 * Tests for the ExactSum superaccumulator: the merge layer's claim of
 * bit-identical statistics for any shard partitioning rests entirely
 * on addition here being exact and associative.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "campaign/exact_sum.hh"
#include "campaign/json.hh"
#include "sim/random.hh"

namespace bpsim
{
namespace
{

TEST(ExactSum, EmptyIsZero)
{
    ExactSum s;
    EXPECT_EQ(s.value(), 0.0);
}

TEST(ExactSum, SingleValueRoundTrips)
{
    for (const double x : {1.0, -1.0, 0.1, -1e300, 1e-300, 1e308,
                           5e-324, -5e-324, 123456.789}) {
        ExactSum s;
        s.add(x);
        EXPECT_EQ(s.value(), x) << "x = " << x;
    }
}

TEST(ExactSum, CancellationIsExact)
{
    // Classic float failure: (1e16 + 1) - 1e16 == 0 in double chains.
    ExactSum s;
    s.add(1e16);
    s.add(1.0);
    s.add(-1e16);
    EXPECT_EQ(s.value(), 1.0);

    // Huge magnitudes cancelling to a tiny residue.
    ExactSum t;
    t.add(1e300);
    t.add(1e-300);
    t.add(-1e300);
    EXPECT_EQ(t.value(), 1e-300);
}

TEST(ExactSum, KahanKillerSeries)
{
    // Alternating large/small values whose naive double sum drifts:
    // the ulp at 1e16 is 2.0, so every +0.25 near the big magnitude
    // is rounded away.
    ExactSum s;
    double naive = 0.0;
    for (int i = 0; i < 1000; ++i) {
        const double big = (i % 2 == 0) ? 1e16 : -1e16;
        s.add(big);
        s.add(0.25);
        naive += big;
        naive += 0.25;
    }
    EXPECT_EQ(s.value(), 250.0);
    EXPECT_NE(naive, 250.0); // the whole point of ExactSum
}

TEST(ExactSum, AssociativeUnderRandomPartitioning)
{
    // Sum a fixed stream serially, then as randomly-sized chunks
    // merged in random-ish orders. Bitwise equality required.
    Rng rng(2014);
    std::vector<double> xs;
    for (int i = 0; i < 5000; ++i) {
        // Mix magnitudes and signs aggressively.
        const double mag = std::ldexp(rng.nextDouble(),
                                      static_cast<int>(rng.nextU64() % 600) - 300);
        xs.push_back(rng.nextDouble() < 0.5 ? mag : -mag);
    }

    ExactSum serial;
    for (const double x : xs)
        serial.add(x);
    const double expect = serial.value();

    for (int trial = 0; trial < 10; ++trial) {
        Rng part(100 + trial);
        std::vector<ExactSum> chunks;
        std::size_t i = 0;
        while (i < xs.size()) {
            const std::size_t len =
                1 + static_cast<std::size_t>(part.nextU64() % 700);
            ExactSum c;
            for (std::size_t j = i; j < std::min(i + len, xs.size()); ++j)
                c.add(xs[j]);
            chunks.push_back(c);
            i += len;
        }
        // Merge back-to-front to exercise a different order than the
        // serial pass.
        ExactSum merged;
        for (auto it = chunks.rbegin(); it != chunks.rend(); ++it)
            merged.merge(*it);
        EXPECT_EQ(merged.value(), expect) << "trial " << trial;
    }
}

TEST(ExactSum, SubnormalsAccumulateExactly)
{
    const double tiny = std::numeric_limits<double>::denorm_min();
    ExactSum s;
    for (int i = 0; i < 1000; ++i)
        s.add(tiny);
    EXPECT_EQ(s.value(), 1000 * tiny);
}

TEST(ExactSum, ManyLargeValuesDoNotOverflow)
{
    // 1e6 copies of the largest finite double exceeds double range in
    // the accumulator but value() saturates sensibly only when asked;
    // here we cancel back down before reading.
    const double big = std::numeric_limits<double>::max();
    ExactSum s;
    for (int i = 0; i < 64; ++i)
        s.add(big);
    for (int i = 0; i < 64; ++i)
        s.add(-big);
    s.add(3.5);
    EXPECT_EQ(s.value(), 3.5);
}

TEST(ExactSum, JsonRoundTripIsBitwise)
{
    Rng rng(7);
    ExactSum s;
    for (int i = 0; i < 300; ++i)
        s.add((rng.nextDouble() - 0.5) * std::ldexp(1.0, i % 120 - 60));

    std::ostringstream os;
    {
        JsonWriter w(os);
        s.writeJson(w);
    }
    const auto parsed = parseJson(os.str());
    ASSERT_TRUE(parsed.has_value());
    const auto back = ExactSum::fromJson(*parsed);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->value(), s.value());

    // And the re-serialization is byte-identical (canonical form).
    std::ostringstream os2;
    {
        JsonWriter w(os2);
        back->writeJson(w);
    }
    EXPECT_EQ(os.str(), os2.str());

    // Malformed documents are rejected, never asserted on: a bad sign,
    // a digit out of base, and a digit in the top (headroom) limb,
    // where two restored sums could carry out of the accumulator.
    for (const char *bad :
         {R"({"sign":2,"lo":0,"limbs":[1]})",
          R"({"sign":1,"lo":0,"limbs":[1073741824]})",
          R"({"sign":1,"lo":72,"limbs":[1073741823]})",
          R"({"sign":1,"lo":-1,"limbs":[1]})", R"({"sign":1,"lo":0})"}) {
        const auto doc = parseJson(bad);
        ASSERT_TRUE(doc.has_value()) << bad;
        EXPECT_FALSE(ExactSum::fromJson(*doc).has_value()) << bad;
    }
}

TEST(ExactSum, ZeroQuery)
{
    ExactSum s;
    EXPECT_TRUE(s.zero());
    s.add(42.0);
    EXPECT_FALSE(s.zero());
    s.add(-42.0);
    EXPECT_TRUE(s.zero()); // exact cancellation is recognized
}

} // namespace
} // namespace bpsim
