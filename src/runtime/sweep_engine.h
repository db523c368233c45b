/**
 * @file
 * The scenario-sweep engine: fans Scenario evaluations across the
 * calling thread and up to numThreads - 1 helper threads, each
 * claiming the next scenario index from one shared counter. An
 * evaluation derives the scenario's ModelCost, then prices its
 * schedule (core::Schedule::price: build and simulate, recording no
 * per-task trace). Only the ModelCost is memoized, keyed by
 * Scenario::costKey() (every field except the schedule), so all
 * schedule variants of one configuration price the workload once;
 * every evaluation builds and simulates its graph.
 *
 * Determinism contract: the simulator itself is single-threaded and
 * deterministic, and the engine parallelises only *across* scenarios —
 * each scenario's graph is built and simulated by exactly one worker,
 * and results land in input order. A sweep on N threads is therefore
 * byte-identical to the same sweep on 1 thread, a warm engine's rerun
 * is byte-identical to a fresh engine's run (runtime_test asserts
 * both), and cache hit/miss counts depend only on the scenario list,
 * never on thread timing (see costFor()).
 *
 * Thread-safety: run() must not be called concurrently from multiple
 * threads on one engine (results are keyed by input index); stats()
 * and clearCostCache() may be called from any thread at any time. The
 * cost cache persists across run() calls until cleared.
 */
#ifndef FSMOE_RUNTIME_SWEEP_ENGINE_H
#define FSMOE_RUNTIME_SWEEP_ENGINE_H

#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/scenario.h"
#include "sim/simulator.h"

namespace fsmoe::runtime {

/** Engine configuration. */
struct SweepOptions
{
    /// Worker threads, the calling thread included; 0 picks the
    /// hardware concurrency.
    int numThreads = 0;
    /// No effect; perfbench still names it.
    bool enableSimCache = true;
};

/** Outcome of one scenario. */
struct ScenarioResult
{
    Scenario scenario;
    double makespanMs = 0.0;
    /// The schedule's price: makespan, opTime and linkBusyMs, with an
    /// empty trace, so a result's size does not grow with its graph.
    /// core::Schedule::simulate on the same ModelCost reproduces these
    /// bits with the per-task trace.
    sim::SimResult sim;
};

/** Counters of one engine lifetime (the cost cache persists across runs). */
struct SweepStats
{
    size_t scenariosRun = 0;
    size_t costCacheHits = 0;
    size_t costCacheMisses = 0;
    size_t simCacheHits = 0;   ///< Stays 0; perfbench still names it.
    size_t simCacheMisses = 0; ///< Stays 0; perfbench still names it.
    double lastSweepWallMs = 0.0;

    // Per-stage wall time, summed across workers (so on N threads the
    // stages can add up to ~N x lastSweepWallMs). Cost derivation counts
    // only cost-cache misses; every evaluation prices its schedule, so
    // graph build counts every scenario. Graph build includes
    // everything a Schedule::price does: solver calls, in-schedule
    // degree-search simulations and the final graph's simulation (see
    // core::solverCacheStats for the solver share). Feeds
    // `fsmoe_sweep --profile`.
    double costDeriveMs = 0.0; ///< Cold ModelCost derivations.
    /// Schedule create + price, and all of makespanBelow().
    double graphBuildMs = 0.0;
    double simulateMs = 0.0; ///< Stays 0; perfbench still names it.
};

class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions options = {});

    /**
     * Evaluate every scenario and return results in input order.
     * Reentrant with respect to the cost cache; not safe to call
     * concurrently from multiple threads. min(numThreads, size)
     * workers claim indices in ascending order; the calling thread is
     * one of them, so a single scenario, or any number with
     * numThreads = 1, starts no thread. A throw stops further claims,
     * and after the join run() rethrows the exception of the lowest
     * failing index, the one a serial loop would throw.
     */
    std::vector<ScenarioResult> run(const std::vector<Scenario> &scenarios);

    /**
     * Evaluate one scenario on the calling thread: its memoized
     * ModelCost, then core::Schedule::price(), timed as graph build.
     * The per-scenario body of run(), and the one path in the repo
     * that yields a ScenarioResult.
     * Creates no threads, so a forked service worker can call it
     * (service/sweep_server.h).
     * Throws whatever cost derivation or the schedule build throws.
     */
    ScenarioResult evaluate(const Scenario &s);

    /**
     * @p schedule's makespan on @p cost when it is below @p cutoff,
     * else +inf, and with @p kept its graph and SimResult
     * (core::Schedule::makespanBelow): a losing schedule may stop
     * before its graph is built or simulated. The cost cache is not
     * read or filled. The time counts as
     * graph build (SweepStats::graphBuildMs), like the simulations an
     * in-build degree search runs. Runs on the calling thread.
     */
    double makespanBelow(const core::Schedule &schedule,
                         const core::ModelCost &cost, double cutoff,
                         core::SimulatedGraph *kept = nullptr);

    const SweepOptions &options() const { return options_; }
    SweepStats stats() const;

    /** Drop every memoized ModelCost. */
    void clearCostCache();

  private:
    /**
     * Memoized ModelCost lookup. The first caller of a key inserts an
     * in-flight future and computes (a miss); every later caller —
     * including concurrent ones — waits on that future (a hit), so hit
     * counts depend only on the scenario list, never on thread timing.
     */
    std::shared_ptr<const core::ModelCost> costFor(const Scenario &s);

    /** Add the time since @p t0 to SweepStats::graphBuildMs. */
    void chargeGraphBuild(std::chrono::steady_clock::time_point t0);

    SweepOptions options_;
    mutable std::mutex mu_;
    std::unordered_map<std::string,
                       std::shared_future<
                           std::shared_ptr<const core::ModelCost>>>
        cost_cache_;
    SweepStats stats_;
};

} // namespace fsmoe::runtime

#endif // FSMOE_RUNTIME_SWEEP_ENGINE_H
