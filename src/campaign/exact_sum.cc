#include "campaign/exact_sum.hh"

#include <cmath>

#include "campaign/json.hh"
#include "sim/logging.hh"

namespace bpsim
{

namespace
{

constexpr std::int64_t kBase = std::int64_t{1} << 30;

} // namespace

void
ExactSum::add(double x)
{
    BPSIM_ASSERT(std::isfinite(x), "ExactSum::add(%g): not finite", x);
    if (x == 0.0)
        return;

    // x = m * 2^(e-53) with |m| a 53-bit integer; frexp is exact.
    int e;
    const double f = std::frexp(x, &e);
    auto m = static_cast<std::int64_t>(std::ldexp(f, 53));
    int pos = e - 53 + kBias; // bit index of m's LSB, from 2^-1074
    if (pos < 0) {
        // Subnormal input: m is a multiple of 2^-pos, so this is exact.
        m >>= -pos;
        pos = 0;
    }

    const bool neg = m < 0;
    auto wide = static_cast<unsigned __int128>(neg ? -m : m);
    wide <<= pos % kLimbBits;
    for (int j = pos / kLimbBits; wide != 0; ++j, wide >>= kLimbBits) {
        const auto chunk =
            static_cast<std::int64_t>(wide & (kBase - 1));
        limb_[j] += neg ? -chunk : chunk;
    }

    // Each add shifts any limb by < 2^30; renormalize long before a
    // limb could reach the int64 range.
    if (++dirty_ >= (1u << 30))
        normalize();
}

void
ExactSum::merge(const ExactSum &other)
{
    ExactSum o = other;
    o.normalize(); // canonical limbs are < 2^30 in magnitude
    for (int j = 0; j < kLimbs; ++j)
        limb_[j] += o.limb_[j];
    if (++dirty_ >= (1u << 30))
        normalize();
}

void
ExactSum::normalize()
{
    // Pass 1: carry-propagate every limb into (-2^30, 2^30).
    std::int64_t carry = 0;
    for (int j = 0; j < kLimbs; ++j) {
        const std::int64_t t = limb_[j] + carry;
        limb_[j] = t % kBase;
        carry = t / kBase;
    }
    BPSIM_ASSERT(carry == 0, "ExactSum overflow beyond 2^1024");

    // Pass 2: unify limb signs so the digits are the canonical
    // base-2^30 representation of |sum| (the top nonzero limb always
    // carries the sign of the total).
    int ms = kLimbs - 1;
    while (ms >= 0 && limb_[ms] == 0)
        --ms;
    if (ms >= 0) {
        const int sign = limb_[ms] > 0 ? 1 : -1;
        for (int j = 0; j < ms; ++j) {
            if (sign > 0 && limb_[j] < 0) {
                limb_[j] += kBase;
                limb_[j + 1] -= 1;
            } else if (sign < 0 && limb_[j] > 0) {
                limb_[j] -= kBase;
                limb_[j + 1] += 1;
            }
        }
    }
    dirty_ = 0;
}

double
ExactSum::value() const
{
    ExactSum c = *this;
    c.normalize();
    // High-to-low accumulation of same-signed digits: faithful, and a
    // pure function of the canonical digits.
    double v = 0.0;
    for (int j = kLimbs - 1; j >= 0; --j) {
        if (c.limb_[j] != 0)
            v += std::ldexp(static_cast<double>(c.limb_[j]),
                            j * kLimbBits - kBias);
    }
    return v;
}

bool
ExactSum::zero() const
{
    ExactSum c = *this;
    c.normalize();
    for (int j = 0; j < kLimbs; ++j)
        if (c.limb_[j] != 0)
            return false;
    return true;
}

void
ExactSum::writeJson(JsonWriter &w) const
{
    ExactSum c = *this;
    c.normalize();
    int lo = 0, hi = kLimbs - 1;
    while (hi >= 0 && c.limb_[hi] == 0)
        --hi;
    const int sign = hi < 0 ? 0 : (c.limb_[hi] > 0 ? 1 : -1);
    while (lo < hi && c.limb_[lo] == 0)
        ++lo;

    w.beginObject();
    w.field("sign", sign);
    w.field("lo", sign == 0 ? 0 : lo);
    w.key("limbs").beginArray();
    if (sign != 0) {
        for (int j = lo; j <= hi; ++j)
            w.value(static_cast<int>(sign > 0 ? c.limb_[j]
                                              : -c.limb_[j]));
    }
    w.endArray();
    w.endObject();
}

std::optional<ExactSum>
ExactSum::fromJson(const JsonValue &v)
{
    const JsonValue *sign = v.find("sign");
    const JsonValue *lo = v.find("lo");
    const JsonValue *limbs = v.find("limbs");
    if (!sign || sign->kind() != JsonValue::Kind::Number || !lo ||
        !lo->isUint() || !limbs || limbs->kind() != JsonValue::Kind::Array)
        return std::nullopt;
    // A sum of fewer than 2^62 finite doubles never reaches the top
    // limb; keeping it empty means merging restored sums can never
    // carry out of the accumulator (an assert in normalize()).
    const double s = sign->asDouble();
    if ((s != -1.0 && s != 0.0 && s != 1.0) ||
        lo->asDouble() + static_cast<double>(limbs->size()) > kLimbs - 1)
        return std::nullopt;
    ExactSum out;
    for (std::size_t i = 0; i < limbs->size(); ++i) {
        const JsonValue &digit = limbs->item(i);
        if (!digit.isUint() || digit.asUint() >= kBase)
            return std::nullopt;
        out.limb_[lo->asUint() + i] =
            static_cast<std::int64_t>(s) *
            static_cast<std::int64_t>(digit.asUint());
    }
    return out;
}

} // namespace bpsim
