/**
 * @file
 * The canary for base/fp_contract.h: a build that fuses `a*b + c`
 * into one multiply-add fails this one named test, rather than the
 * byte gates and bit-exactness tests it would also break.
 */
#include <gtest/gtest.h>

#include "base/fp_contract.h"
#include "test_util.h"

namespace fsmoe {
namespace {

TEST(FpContract, MultiplyAddRoundsTwice)
{
    // (1 + 2^-30)(1 - 2^-30) = 1 - 2^-60 exactly, which rounds to 1, so
    // adding -1 gives +0. A fused multiply-add rounds only the exact
    // sum, -2^-60.
    const double x = 1.0 + 0x1p-30;
    const double y = 1.0 - 0x1p-30;
    const double got = multiplyAdd(x, y, -1.0);
    EXPECT_TRUE(test::sameBits(got, 0.0))
        << "x*y + z rounded once (" << got
        << "): the build contracts it into a fused multiply-add; "
           "compile with -ffp-contract=off";
}

} // namespace
} // namespace fsmoe
