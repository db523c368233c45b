/**
 * @file
 * Cross-PR byte-gate for the schedule advisor, in-tree: tuning the
 * demo query must serialise to the exact bytes of the blessed answer
 * (bench/baselines/demo_tune.json). The e2e_tune ctest case runs the
 * same `cmp` on the fsmoe_tune program's output, cold and warm; this
 * test checks the library in-process, so a simulator, schedule, or
 * search change that moves the recommendation (or any frontier
 * number) fails locally before a PR is drafted. Regenerate the
 * baseline deliberately (`fsmoe_tune --quiet --out-json
 * bench/baselines/demo_tune.json`) when a change is *supposed* to move
 * it.
 *
 * The baseline path is compiled in from CMake (FSMOE_TUNE_BASELINE),
 * so the test is independent of the ctest working directory.
 */
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "runtime/tuner.h"

namespace fsmoe::runtime {
namespace {

TEST(DemoTuneBaseline, AnswerIsByteIdenticalToBlessedBaseline)
{
    std::ifstream in(FSMOE_TUNE_BASELINE, std::ios::binary);
    ASSERT_TRUE(in.good()) << "cannot open baseline " FSMOE_TUNE_BASELINE;
    const std::string baseline((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());

    TuneQuery query;
    query.model = "gpt2xl-moe";
    query.cluster = "testbedA";
    Tuner tuner;
    const std::string current = Tuner::answerJson(tuner.tune(query));

    ASSERT_EQ(current.size(), baseline.size())
        << "demo tuner answer serialised to a different length than "
           "the baseline — the search moved";
    EXPECT_TRUE(current == baseline)
        << "demo tuner answer bytes differ from " FSMOE_TUNE_BASELINE;
}

} // namespace
} // namespace fsmoe::runtime
