/**
 * @file
 * Tests for how SweepEngine::run spreads a sweep over threads: which
 * threads evaluate its scenarios, and which exception a failing sweep
 * throws. A probe schedule registered here records the thread of each
 * build and can be told to throw. Every scenario below names its
 * schedule explicitly, so the probe never joins a grid that sweeps
 * every registered schedule.
 */
#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/schedules/schedule.h"
#include "core/schedules/schedule_registry.h"
#include "runtime/scenario.h"
#include "runtime/sweep_engine.h"

namespace fsmoe::runtime {
namespace {

std::mutex builds_mu;
std::vector<std::thread::id> builds; ///< Thread of each probe build.

/**
 * One compute task. With `fail` > 0 the build throws "probe <fail>
 * failed" instead, after sleeping `delayMs`.
 */
class ProbeSchedule : public core::Schedule
{
  public:
    ProbeSchedule(int fail, int delay_ms) : fail_(fail), delay_ms_(delay_ms)
    {
    }

    sim::TaskGraph build(const core::ModelCost &) const override
    {
        {
            std::lock_guard<std::mutex> lock(builds_mu);
            builds.push_back(std::this_thread::get_id());
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
        if (fail_ > 0)
            throw std::runtime_error("probe " + std::to_string(fail_) +
                                     " failed");
        sim::TaskGraph graph;
        graph.addTask("probe", sim::OpType::Other, sim::Link::Compute, 0,
                      1e-3, {});
        return graph;
    }

  private:
    int fail_;
    int delay_ms_;
};

/** Register the probe once per process; clear its build record. */
void
resetProbe()
{
    static const bool registered = [] {
        core::ScheduleInfo info;
        info.name = "sweep-engine-probe";
        info.description = "records its build thread; may throw";
        info.params = {
            {"fail", core::ScheduleParamType::Int, "0",
             "throw from build when > 0", 0.0, 1000.0, false},
            {"delayMs", core::ScheduleParamType::Int, "0",
             "sleep before a build returns or throws", 0.0, 1000.0,
             false}};
        return core::ScheduleRegistry::instance().registerSchedule(
            info, [](const core::ScheduleParams &p) {
                return std::make_unique<ProbeSchedule>(
                    static_cast<int>(p.getInt("fail", 0)),
                    static_cast<int>(p.getInt("delayMs", 0)));
            });
    }();
    ASSERT_TRUE(registered);
    std::lock_guard<std::mutex> lock(builds_mu);
    builds.clear();
}

std::vector<std::thread::id>
recordedBuilds()
{
    std::lock_guard<std::mutex> lock(builds_mu);
    return builds;
}

/** A small configuration with schedule @p spec. */
Scenario
scenario(const std::string &spec)
{
    Scenario s;
    s.model = "gpt2xl-moe";
    s.cluster = "testbedA";
    s.numLayers = 3;
    s.schedule = spec;
    return s;
}

/** @p n probe scenarios that all build without throwing. */
std::vector<Scenario>
probes(size_t n)
{
    return std::vector<Scenario>(n, scenario("sweep-engine-probe"));
}

TEST(SweepEngineWorkers, OneScenarioOrOneThreadBuildsOnTheCallingThread)
{
    resetProbe();
    const std::thread::id caller = std::this_thread::get_id();

    SweepEngine four({/*numThreads=*/4});
    ASSERT_EQ(four.run(probes(1)).size(), 1u);
    EXPECT_EQ(recordedBuilds(), std::vector<std::thread::id>(1, caller));

    resetProbe();
    SweepEngine one({/*numThreads=*/1});
    ASSERT_EQ(one.run(probes(8)).size(), 8u);
    EXPECT_EQ(recordedBuilds(), std::vector<std::thread::id>(8, caller));
}

TEST(SweepEngineWorkers, SixteenScenariosOnFourThreadsUseAtMostFour)
{
    resetProbe();
    SweepEngine engine({/*numThreads=*/4});
    const auto results = engine.run(probes(16));
    ASSERT_EQ(results.size(), 16u);
    const std::vector<std::thread::id> seen = recordedBuilds();
    EXPECT_EQ(seen.size(), 16u);
    const std::set<std::thread::id> threads(seen.begin(), seen.end());
    EXPECT_LE(threads.size(), 4u);
    EXPECT_EQ(engine.stats().scenariosRun, 16u);
}

TEST(SweepEngineWorkers, ZeroThreadsUsesAtMostTheHardwareConcurrency)
{
    resetProbe();
    SweepEngine engine({/*numThreads=*/0});
    ASSERT_EQ(engine.run(probes(16)).size(), 16u);
    const std::vector<std::thread::id> seen = recordedBuilds();
    const std::set<std::thread::id> threads(seen.begin(), seen.end());
    EXPECT_EQ(seen.size(), 16u);
    EXPECT_LE(threads.size(),
              std::max(1u, std::thread::hardware_concurrency()));
}

/**
 * Eight scenarios of which indices 2 and 5 throw. Index 2 sleeps
 * first, so on several threads index 5 usually throws earlier in time;
 * the sweep must still surface index 2's exception.
 */
std::vector<Scenario>
failingGrid()
{
    std::vector<Scenario> grid = probes(8);
    grid[2] = scenario("sweep-engine-probe?fail=2&delayMs=20");
    grid[5] = scenario("sweep-engine-probe?fail=5");
    return grid;
}

/** A clean grid on the failing grid's configuration. */
std::vector<Scenario>
cleanGrid()
{
    return {scenario("FSMoE"), scenario("Tutel"),
            scenario("Tutel?degree=4"), scenario("sweep-engine-probe"),
            scenario("PipeMoE+Lina"), scenario("DS-MoE")};
}

TEST(SweepEngineWorkers, TheLowestFailingIndexThrowsAndTheCacheStaysClean)
{
    for (const int threads : {1, 4}) {
        SCOPED_TRACE("numThreads " + std::to_string(threads));
        resetProbe();
        SweepEngine engine({threads});
        std::string caught;
        try {
            engine.run(failingGrid());
        } catch (const std::runtime_error &e) {
            caught = e.what();
        }
        EXPECT_EQ(caught, "probe 2 failed");
        // On one thread the throw at index 2 stops the sweep there.
        if (threads == 1) {
            EXPECT_EQ(recordedBuilds().size(), 3u);
        }
        EXPECT_EQ(engine.stats().scenariosRun, 0u);

        // The same engine, its cost cache warm from the failed sweep,
        // re-runs a clean grid with the bits of a fresh engine.
        const auto warm = engine.run(cleanGrid());
        const auto fresh = SweepEngine({threads}).run(cleanGrid());
        EXPECT_EQ(engine.stats().costCacheMisses, 1u);
        ASSERT_EQ(warm.size(), fresh.size());
        for (size_t i = 0; i < warm.size(); ++i) {
            const ScenarioResult &a = warm[i];
            const ScenarioResult &b = fresh[i];
            EXPECT_EQ(a.scenario.label(), b.scenario.label());
            EXPECT_EQ(std::memcmp(&a.makespanMs, &b.makespanMs,
                                  sizeof(double)),
                      0)
                << a.scenario.label();
            ASSERT_EQ(a.sim.opTime.size(), b.sim.opTime.size());
            EXPECT_EQ(std::memcmp(a.sim.opTime.data(), b.sim.opTime.data(),
                                  sizeof(double) * a.sim.opTime.size()),
                      0)
                << a.scenario.label();
            ASSERT_EQ(a.sim.linkBusyMs.size(), b.sim.linkBusyMs.size());
            EXPECT_EQ(std::memcmp(a.sim.linkBusyMs.data(),
                                  b.sim.linkBusyMs.data(),
                                  sizeof(double) * a.sim.linkBusyMs.size()),
                      0)
                << a.scenario.label();
        }
    }
}

} // namespace
} // namespace fsmoe::runtime
