/**
 * @file
 * base/json's number printer against the printf form it replaces:
 * fmtDouble must print the bytes of "%.17g", which every persisted
 * result file, journal and blessed baseline was written with.
 */
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "base/json.h"

namespace fsmoe {
namespace {

std::string
printfG17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

TEST(Json, FmtDoubleMatchesPrintfG17)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double v :
         {0.0, -0.0, inf, -inf, nan, -nan, DBL_MAX, -DBL_MAX, DBL_MIN,
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          std::nextafter(DBL_MIN, 0.0), 1e-310, 0.1, 1.0, 1e16, 1e17,
          123456789012345678.0, 217.79999999999998})
        EXPECT_EQ(json::fmtDouble(v), printfG17(v)) << printfG17(v);

    // Seeded random bit patterns cover every exponent, the subnormals
    // and NaN payloads among them.
    std::mt19937_64 rng(0x6a50f17u);
    constexpr int kPatterns = 1 << 20;
    int mismatches = 0;
    for (int i = 0; i < kPatterns; ++i) {
        const uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        if (json::fmtDouble(v) != printfG17(v) && ++mismatches <= 5)
            ADD_FAILURE() << "bits 0x" << std::hex << bits << ": "
                          << json::fmtDouble(v) << " vs " << printfG17(v);
    }
    EXPECT_EQ(mismatches, 0);
}

} // namespace
} // namespace fsmoe
