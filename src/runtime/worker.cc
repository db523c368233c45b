#include "runtime/worker.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "base/interrupt.h"
#include "base/logging.h"
#include "base/stats.h"
#include "core/schedules/schedule.h"
#include "runtime/fault.h"
#include "runtime/thread_pool.h"
#include "sim/simulator.h"

namespace fsmoe::runtime {

namespace {

SweepResult
attemptInProcess(const Scenario &s, const RetryPolicy &retry)
{
    const std::string label = s.label();
    std::string last_error;
    for (int attempt = 1; attempt <= retry.maxAttempts; ++attempt) {
        if (attempt > 1) {
            stats::counter("robust.retry.count").inc();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(retry.backoffMs(attempt - 1)));
        }
        if (fault::shouldInject(fault::Site::WorkerCrash, label, attempt)) {
            // No isolation boundary: a worker crash IS a process
            // crash — exactly the mid-sweep kill --resume recovers.
            ::_exit(137);
        }
        try {
            SweepResult r = evaluateScenario(s, attempt);
            stats::counter("robust.scenario.ok").inc();
            return r;
        } catch (const std::exception &e) {
            last_error = e.what();
            stats::counter("robust.scenario.failedAttempts").inc();
            FSMOE_WARN("scenario ", label, " attempt ", attempt, "/",
                       retry.maxAttempts, " failed: ", last_error);
        }
    }
    stats::counter("robust.scenario.quarantined").inc();
    return failureRecord(s, ResultStatus::Quarantined, retry.maxAttempts,
                         last_error);
}

} // namespace

SweepResult
failureRecord(const Scenario &s, ResultStatus status, int attempts,
              const std::string &error)
{
    SweepResult r;
    r.model = s.model;
    r.cluster = s.cluster;
    r.schedule = s.schedule;
    r.batch = s.batch;
    r.seqLen = s.seqLen;
    r.numLayers = s.numLayers;
    r.numExperts = s.numExperts;
    r.rMax = s.rMax;
    r.status = status;
    r.attempts = attempts;
    r.error = error;
    return r;
}

int
RetryPolicy::backoffMs(int attempt) const
{
    long ms = backoffBaseMs;
    for (int i = 1; i < attempt && ms < backoffMaxMs; ++i)
        ms *= 2;
    if (ms > backoffMaxMs)
        ms = backoffMaxMs;
    return static_cast<int>(ms);
}

SweepResult
evaluateScenario(const Scenario &s, int attempt)
{
    if (fault::shouldInject(fault::Site::EvalError, s.label(), attempt)) {
        throw std::runtime_error("injected eval fault (attempt " +
                                 std::to_string(attempt) + ")");
    }
    // The same pure pipeline as SweepEngine::timedSimulate, so a
    // robust run's bytes match the plain engine's exactly.
    ScenarioResult r;
    r.scenario = s;
    const core::ModelCost cost = ScenarioRegistry::instance().makeCost(s);
    auto schedule = core::Schedule::create(s.schedule);
    sim::TaskGraph graph = schedule->build(cost);
    r.sim = sim::Simulator{}.run(graph);
    r.makespanMs = r.sim.makespan;
    SweepResult out = SweepResult::fromScenarioResult(r);
    out.attempts = attempt;
    return out;
}

std::vector<SweepResult>
runRobust(const std::vector<Scenario> &grid, const RobustOptions &opts,
          Journal *journal)
{
    fault::configureFromEnv();
    std::vector<SweepResult> results(grid.size());
    std::vector<char> done(grid.size(), 0);
    if (journal != nullptr) {
        for (const auto &entry : journal->recovered()) {
            // Only Ok entries count as finished; failed/quarantined
            // ones get a fresh retry budget (a resume without fault
            // injection then converges to the clean run's bytes).
            if (entry.first < grid.size() &&
                entry.second.status == ResultStatus::Ok) {
                results[entry.first] = entry.second;
                done[entry.first] = 1;
                stats::counter("robust.scenario.resumed").inc();
            }
        }
    }

    // The journal append below finishes even when a stop signal has
    // already been recorded — the handler only sets a flag — so a
    // Ctrl-C never tears the record in flight; it only prevents new
    // scenarios from starting.
    std::atomic<int> finished{0};
    const auto finish = [&](size_t i, SweepResult r) {
        if (journal != nullptr) {
            std::string error;
            if (!journal->append(i, r, &error))
                FSMOE_WARN(error);
        }
        results[i] = std::move(r);
        const int n = finished.fetch_add(1, std::memory_order_relaxed) + 1;
        if (opts.stopAfterResults > 0 && n >= opts.stopAfterResults)
            interrupt::requestStop(SIGTERM);
    };

    ThreadPool pool(opts.numThreads);
    std::vector<std::future<void>> pending;
    pending.reserve(grid.size());
    for (size_t i = 0; i < grid.size(); ++i) {
        if (done[i] != 0)
            continue;
        pending.push_back(pool.submit([&, i]() {
            if (interrupt::stopRequested())
                return; // graceful stop: never start new work
            finish(i, attemptInProcess(grid[i], opts.retry));
        }));
    }
    for (auto &f : pending)
        f.get();
    return results;
}

} // namespace fsmoe::runtime
