/**
 * @file
 * Regression tests for determinism hazards found by fsmoe_lint's
 * first pass over the tree: registry name listings and the repeated-
 * warning summary used to surface in std::unordered_map hash order,
 * which varies with insertion history and libstdc++ version. Both now
 * sort before exposing anything.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/logging.h"
#include "runtime/scenario.h"

namespace fsmoe {
namespace {

TEST(DeterminismRegression, RegistryNameListingsAreSorted)
{
    // The known presets an unknown name's error lists come out sorted,
    // never in hash or insertion order, and the same on every call.
    const runtime::ScenarioRegistry &reg =
        runtime::ScenarioRegistry::instance();
    std::string canonical, models, clusters;
    EXPECT_FALSE(reg.canonicalizeModel("bogus", &canonical, &models));
    EXPECT_FALSE(reg.canonicalizeCluster("bogus", &canonical, &clusters));
    EXPECT_EQ(models, "unknown model preset 'bogus'; known: gpt2xl-moe, "
                      "mixtral-22b, mixtral-7b, table4");
    EXPECT_EQ(clusters,
              "unknown cluster preset 'bogus'; known: testbedA, testbedB");
    std::string again;
    EXPECT_FALSE(reg.canonicalizeModel("bogus", &canonical, &again));
    EXPECT_EQ(again, models);
}

TEST(DeterminismRegression, RepeatedWarningSummaryIsSorted)
{
    // Two distinct warnings, each repeated, inserted in an order that
    // a hash table is free to invert. The flushed summary must come
    // out lexicographically sorted regardless.
    flushRepeatedWarnings(); // drain any prior state
    for (int i = 0; i < 3; ++i) {
        FSMOE_WARN("zzz regression warning");
        FSMOE_WARN("aaa regression warning");
    }
    testing::internal::CaptureStderr();
    flushRepeatedWarnings();
    const std::string out = testing::internal::GetCapturedStderr();
    const size_t pos_a = out.find("aaa regression warning");
    const size_t pos_z = out.find("zzz regression warning");
    ASSERT_NE(pos_a, std::string::npos) << out;
    ASSERT_NE(pos_z, std::string::npos) << out;
    EXPECT_LT(pos_a, pos_z) << "summary not sorted:\n" << out;
}

} // namespace
} // namespace fsmoe
