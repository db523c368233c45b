/**
 * @file
 * Cross-PR bit-exactness gate, in-tree: sweeping the demo grid must
 * serialise to the exact bytes of the blessed baseline
 * (bench/baselines/demo_grid.json). The e2e_persist ctest case runs the
 * same check through fsmoe_sweep, cmp and fsmoe_diff; this test checks
 * the library in-process, so a simulator or schedule change that moves
 * any simulated number fails locally before a PR is even drafted. Regenerate the
 * baseline deliberately (`fsmoe_sweep --out-json
 * bench/baselines/demo_grid.json`) when a change is *supposed* to move
 * the numbers.
 *
 * The same bytes must come out of a 4-thread engine, cold and then
 * warm (every ModelCost served from the cost cache). In builds
 * that carry the debug-mode audits (base/audit.h) the test also proves
 * they ran over these sweeps, so a pass cannot mean "compiled out".
 *
 * The baseline path is compiled in from CMake (FSMOE_DEMO_BASELINE),
 * so the test is independent of the ctest working directory.
 */
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/audit.h"
#include "base/stats.h"
#include "runtime/result_store.h"
#include "runtime/scenario.h"
#include "runtime/sweep_engine.h"

namespace fsmoe::runtime {
namespace {

TEST(DemoGridBaseline, SweepIsByteIdenticalToBlessedBaseline)
{
    std::ifstream in(FSMOE_DEMO_BASELINE, std::ios::binary);
    ASSERT_TRUE(in.good()) << "cannot open baseline " FSMOE_DEMO_BASELINE;
    const std::string baseline((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());

    const std::vector<Scenario> grid = demoGrid();
    SweepEngine engine({/*numThreads=*/1});
    const std::string current = toJson(toSweepResults(engine.run(grid)));

    ASSERT_EQ(current.size(), baseline.size())
        << "demo-grid sweep serialised to a different length than the "
           "baseline — the optimization moved simulated numbers";
    EXPECT_TRUE(current == baseline)
        << "demo-grid sweep bytes differ from " FSMOE_DEMO_BASELINE;

    SweepEngine parallel({/*numThreads=*/4});
    EXPECT_TRUE(toJson(toSweepResults(parallel.run(grid))) == baseline)
        << "cold 4-thread sweep differs from the baseline";
    EXPECT_TRUE(toJson(toSweepResults(parallel.run(grid))) == baseline)
        << "warm 4-thread sweep differs from the baseline";

    if (audit::compiledIn()) {
        const auto count = [](const char *name) {
            return stats::counter(name).value();
        };
        EXPECT_GT(count("audit.taskGraph.verified"), 0u);
        EXPECT_GT(count("audit.heap.popChecks"), 0u);
        EXPECT_GT(count("audit.cacheKey.recorded"), 0u);
        EXPECT_GE(count("audit.cacheKey.checks"),
                  count("audit.cacheKey.recorded"));
    }
}

} // namespace
} // namespace fsmoe::runtime
