/**
 * @file
 * Tests for the in-process fault-tolerant sweep runner: clean runs
 * byte-match the plain engine, retries and quarantine behave
 * deterministically under injected faults, and a journaled sweep
 * SIGKILLed mid-run resumes to byte-identical results — the repo's
 * determinism contract extended across process death. Crash and hang
 * containment (SweepServer) is covered in service_test.cc.
 */
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/interrupt.h"
#include "base/stats.h"
#include "runtime/fault.h"
#include "runtime/journal.h"
#include "runtime/result_store.h"
#include "runtime/scenario.h"
#include "runtime/sweep_engine.h"
#include "runtime/worker.h"

namespace fsmoe::runtime {
namespace {

/** RAII: no injection before or after each test, whatever happens. */
struct FaultGuard
{
    FaultGuard() { fault::reset(); }
    ~FaultGuard() { fault::reset(); }
};

std::vector<Scenario>
smallGrid()
{
    return ScenarioGrid()
        .models({"gpt2xl-moe"})
        .clusters({"testbedA"})
        .numLayers({1})
        .build();
}

std::vector<Scenario>
oneScenario()
{
    return ScenarioGrid()
        .models({"gpt2xl-moe"})
        .clusters({"testbedA"})
        .schedules({"FSMoE"})
        .numLayers({1})
        .build();
}

std::vector<std::string>
recordBytes(const std::vector<SweepResult> &results)
{
    std::vector<std::string> out;
    for (const SweepResult &r : results)
        out.push_back(toJsonRecord(r));
    return out;
}

std::vector<SweepResult>
engineResults(const std::vector<Scenario> &grid)
{
    SweepEngine engine({/*numThreads=*/2});
    return toSweepResults(engine.run(grid));
}

void
configureFaults(const std::string &spec)
{
    fault::FaultConfig cfg;
    std::string error;
    ASSERT_TRUE(fault::parseSpec(spec, &cfg, &error)) << error;
    fault::configure(cfg);
}

RobustOptions
fastOpts()
{
    RobustOptions opts;
    opts.numThreads = 2;
    opts.retry.backoffBaseMs = 1;
    opts.retry.backoffMaxMs = 2;
    return opts;
}

TEST(Worker, RetryBackoffDoublesAndSaturates)
{
    RetryPolicy retry;
    retry.backoffBaseMs = 10;
    retry.backoffMaxMs = 1000;
    EXPECT_EQ(retry.backoffMs(1), 10);
    EXPECT_EQ(retry.backoffMs(2), 20);
    EXPECT_EQ(retry.backoffMs(5), 160);
    EXPECT_EQ(retry.backoffMs(8), 1000);  // capped
    EXPECT_EQ(retry.backoffMs(30), 1000); // no overflow blow-up
}

TEST(Worker, CleanRobustRunIsByteIdenticalToThePlainEngine)
{
    FaultGuard guard;
    const auto grid = smallGrid();
    EXPECT_EQ(recordBytes(runRobust(grid, fastOpts())),
              recordBytes(engineResults(grid)));
}

TEST(Worker, EvalFaultsRetryDeterministicallyAndSpareSurvivors)
{
    FaultGuard guard;
    const auto grid = smallGrid();
    const auto clean = recordBytes(engineResults(grid));

    configureFaults("seed=42,eval=0.4");
    const auto first = runRobust(grid, fastOpts());
    configureFaults("seed=42,eval=0.4");
    const auto second = runRobust(grid, fastOpts());

    // Identical bytes across runs: which scenarios fail, how often,
    // and what gets recorded is a pure function of the seed.
    EXPECT_EQ(recordBytes(first), recordBytes(second));

    ASSERT_EQ(first.size(), grid.size());
    for (size_t i = 0; i < first.size(); ++i) {
        const SweepResult &r = first[i];
        if (r.status == ResultStatus::Ok) {
            // Survivors carry exactly the clean run's bytes.
            EXPECT_EQ(toJsonRecord(r), clean[i]);
        } else {
            EXPECT_EQ(r.status, ResultStatus::Quarantined);
            EXPECT_EQ(r.attempts, fastOpts().retry.maxAttempts);
            EXPECT_NE(r.error.find("injected eval fault"),
                      std::string::npos)
                << r.error;
            EXPECT_EQ(r.makespanMs, 0.0);
        }
    }
}

TEST(Worker, CertainFailureQuarantinesAfterMaxAttempts)
{
    FaultGuard guard;
    const auto grid = oneScenario();
    ASSERT_EQ(grid.size(), 1u);

    configureFaults("seed=1,eval=1");
    RobustOptions opts = fastOpts();
    opts.retry.maxAttempts = 2;
    const auto results = runRobust(grid, opts);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, ResultStatus::Quarantined);
    EXPECT_EQ(results[0].attempts, 2);
    EXPECT_FALSE(results[0].error.empty());
    EXPECT_EQ(results[0].key(), grid[0].label());
}

TEST(Worker, JournaledRunRecordsEverythingAndResumeSkipsOkEntries)
{
    FaultGuard guard;
    const auto grid = smallGrid();
    const std::string path =
        testing::TempDir() + "/worker_journal_skip.txt";
    std::remove(path.c_str());

    std::string error;
    {
        Journal j;
        ASSERT_TRUE(j.open(path, grid, /*resume=*/false, &error))
            << error;
        runRobust(grid, fastOpts(), &j);
    }

    // Resume over a complete journal re-simulates nothing: the
    // recovered entries alone must reproduce the full result set.
    Journal back;
    ASSERT_TRUE(back.open(path, grid, /*resume=*/true, &error)) << error;
    EXPECT_EQ(back.recovered().size(), grid.size());
    const uint64_t sims_before = stats::counter("sim.runs").value();
    const auto resumed = runRobust(grid, fastOpts(), &back);
    EXPECT_EQ(stats::counter("sim.runs").value(), sims_before)
        << "resume over a complete journal re-simulated scenarios";
    EXPECT_EQ(recordBytes(resumed), recordBytes(engineResults(grid)));
    std::remove(path.c_str());
}

TEST(Worker, KilledMidSweepResumesToByteIdenticalResults)
{
    const auto grid = smallGrid();
    const std::string path =
        testing::TempDir() + "/worker_journal_kill.txt";
    std::remove(path.c_str());

    // Child: journaled sweep that exits (137) after the 2nd append —
    // the SIGKILL-mid-sweep case with a deterministic kill point.
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        fault::FaultConfig cfg;
        std::string error;
        if (!fault::parseSpec("kill-after=2", &cfg, &error))
            ::_exit(3);
        fault::configure(cfg);
        Journal j;
        if (!j.open(path, grid, /*resume=*/false, &error))
            ::_exit(4);
        RobustOptions opts;
        opts.numThreads = 1; // deterministic append order in the child
        opts.retry.backoffBaseMs = 1;
        opts.retry.backoffMaxMs = 2;
        runRobust(grid, opts, &j); // must die on the 2nd append
        ::_exit(5);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 137)
        << "child completed the sweep it was told to die in";

    // Parent: resume the interrupted journal with injection off.
    FaultGuard guard;
    Journal back;
    std::string error;
    ASSERT_TRUE(back.open(path, grid, /*resume=*/true, &error)) << error;
    EXPECT_EQ(back.recovered().size(), 2u);
    const auto resumed = runRobust(grid, fastOpts(), &back);
    EXPECT_EQ(recordBytes(resumed), recordBytes(engineResults(grid)));
    std::remove(path.c_str());
}

TEST(Worker, QuarantinedSweepResumedCleanConvergesToCleanBytes)
{
    FaultGuard guard;
    const auto grid = smallGrid();
    const std::string path =
        testing::TempDir() + "/worker_journal_heal.txt";
    std::remove(path.c_str());

    // Fault-injected journaled sweep: a high rate so at least one
    // scenario exhausts its attempts, but not so high that nothing
    // survives — the resume must mix kept-Ok and re-attempted entries.
    configureFaults("seed=42,eval=0.9");
    std::string error;
    size_t quarantined = 0;
    {
        Journal j;
        ASSERT_TRUE(j.open(path, grid, /*resume=*/false, &error))
            << error;
        for (const SweepResult &r : runRobust(grid, fastOpts(), &j))
            quarantined += r.status != ResultStatus::Ok;
    }
    ASSERT_GT(quarantined, 0u)
        << "seed=42,eval=0.9 no longer quarantines anything; pick a "
           "seed that does so this test exercises re-attempts";
    ASSERT_LT(quarantined, grid.size())
        << "everything quarantined; pick a seed that leaves survivors "
           "so the resume path exercises kept-Ok journal entries";

    // Resume with injection off: non-Ok journal entries are
    // re-attempted, healing the sweep to the clean run's bytes.
    fault::reset();
    Journal back;
    ASSERT_TRUE(back.open(path, grid, /*resume=*/true, &error)) << error;
    const auto resumed = runRobust(grid, fastOpts(), &back);
    EXPECT_EQ(recordBytes(resumed), recordBytes(engineResults(grid)));
    std::remove(path.c_str());
}

TEST(Worker, StopAfterResultsDrainsGracefullyAndResumeConverges)
{
    // stopAfterResults is the deterministic stand-in for SIGTERM: the
    // sweep stops starting scenarios once N finished, journalled work
    // survives, unstarted scenarios come back empty, and a resumed
    // sweep converges to the clean bytes.
    FaultGuard guard;
    interrupt::clearStop();
    const auto grid = smallGrid();
    ASSERT_GT(grid.size(), 2u);
    const std::string path =
        testing::TempDir() + "/worker_journal_stop.txt";
    std::remove(path.c_str());

    RobustOptions opts = fastOpts();
    opts.numThreads = 1; // serial: exactly N finish before the stop
    opts.stopAfterResults = 2;
    std::string error;
    size_t finished = 0;
    {
        Journal j;
        ASSERT_TRUE(j.open(path, grid, /*resume=*/false, &error))
            << error;
        const auto partial = runRobust(grid, opts, &j);
        EXPECT_TRUE(interrupt::stopRequested());
        ASSERT_EQ(partial.size(), grid.size());
        for (const SweepResult &r : partial)
            finished += !r.schedule.empty();
    }
    EXPECT_EQ(finished, 2u);
    interrupt::clearStop();

    Journal back;
    ASSERT_TRUE(back.open(path, grid, /*resume=*/true, &error)) << error;
    EXPECT_EQ(back.recovered().size(), finished);
    const auto resumed = runRobust(grid, fastOpts(), &back);
    EXPECT_FALSE(interrupt::stopRequested());
    EXPECT_EQ(recordBytes(resumed), recordBytes(engineResults(grid)));
    std::remove(path.c_str());
}

} // namespace
} // namespace fsmoe::runtime
