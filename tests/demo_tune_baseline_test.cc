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
#include <cstdio>
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

TEST(DemoTuneBaseline, AnswersCachedByTheDePartitionerAreStale)
{
    // An advisor-cache entry as the build whose step 2 ran differential
    // evolution wrote it: same query key, that build's registry digest
    // and its answer (makespan 202.10986413214923 ms; the first
    // frontier entry is enough to load). The digest now mixes in the
    // partitioner revision, so the entry loads but is not served, and
    // the fresh search answers with the blessed bytes.
    std::ifstream in(FSMOE_TUNE_BASELINE, std::ios::binary);
    ASSERT_TRUE(in.good()) << "cannot open baseline " FSMOE_TUNE_BASELINE;
    const std::string baseline((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());

    TuneQuery query;
    query.model = "gpt2xl-moe";
    query.cluster = "testbedA";
    Tuner tuner;
    const std::string path =
        testing::TempDir() + "/fsmoe_advisor_de_build.json";
    {
        std::ofstream out(path, std::ios::binary);
        out << "{\"schema\": \"fsmoe-advisor-cache\", \"version\": 2, "
               "\"entries\": [{\"query\": \""
            << tuner.queryKey(query)
            << "\", \"registry\": \"02557cc24e0fc1f4\", "
               "\"best\": \"FSMoE\", "
               "\"bestMakespanMs\": 202.10986413214923, "
               "\"evaluated\": 304, \"frontier\": [{\"spec\": \"FSMoE\", "
               "\"makespanMs\": 202.10986413214923, "
               "\"commBusyMs\": 226.35242272000005, "
               "\"peakMemMB\": 15.872120956699618}]}]}\n";
    }
    std::string error;
    ASSERT_TRUE(tuner.loadCache(path, &error)) << error;
    std::remove(path.c_str());
    EXPECT_EQ(tuner.cacheSize(), 1u);

    const TuneAnswer answer = tuner.tune(query);
    EXPECT_FALSE(answer.fromCache);
    EXPECT_TRUE(Tuner::answerJson(answer) == baseline)
        << "fresh answer bytes differ from " FSMOE_TUNE_BASELINE;
}

} // namespace
} // namespace fsmoe::runtime
