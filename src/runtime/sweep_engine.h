/**
 * @file
 * The scenario-sweep engine: fans Scenario evaluations across a
 * ThreadPool. An evaluation derives the scenario's ModelCost, then
 * builds and simulates its schedule's graph. Only the ModelCost is
 * memoized, keyed by Scenario::costKey() (every field except the
 * schedule), so all schedule variants of one configuration price the
 * workload once; every evaluation builds and simulates its graph.
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

#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/scenario.h"
#include "runtime/thread_pool.h"
#include "sim/simulator.h"

namespace fsmoe::runtime {

/** Engine configuration. */
struct SweepOptions
{
    /// Worker threads; 0 picks the hardware concurrency.
    int numThreads = 0;
    /// No effect; perfbench still names it.
    bool enableSimCache = true;
};

/** Outcome of one scenario. */
struct ScenarioResult
{
    Scenario scenario;
    double makespanMs = 0.0;
    sim::SimResult sim; ///< Full per-task timing.
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
    // only cost-cache misses; every evaluation builds and simulates, so
    // the other two stages count every scenario. Graph build
    // includes everything a Schedule::buildSimulated does: solver
    // calls and in-schedule degree-search simulations, the searched
    // winner's included, whose result is handed back and not
    // simulated again (see core::solverCacheStats for the solver
    // share). Feeds `fsmoe_sweep --profile`.
    double costDeriveMs = 0.0; ///< Cold ModelCost derivations.
    /// Schedule create + buildSimulated, and all of makespanBelow().
    double graphBuildMs = 0.0;
    /// Simulator::run on built graphs that no in-build search
    /// simulated (FSMoE's, DS-MoE's, a fixed-degree Tutel's, ...).
    double simulateMs = 0.0;
};

class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions options = {});

    /**
     * Evaluate every scenario and return results in input order.
     * Reentrant with respect to the cost cache; not safe to call
     * concurrently from multiple threads. A single scenario is
     * evaluated on the calling thread, without starting a pool.
     */
    std::vector<ScenarioResult> run(const std::vector<Scenario> &scenarios);

    /**
     * Evaluate one scenario on the calling thread: its memoized
     * ModelCost, then timedSimulate(). The per-scenario body of run(),
     * and the one path in the repo that yields a ScenarioResult.
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

    /**
     * core::Schedule::simulate() for @p s, charging its two stages to
     * SweepStats::graphBuildMs / simulateMs: the build, with any
     * degree search, whose winner's result is handed back, and only
     * when nothing was handed back, the Simulator::run of the built
     * graph.
     */
    sim::SimResult timedSimulate(const Scenario &s,
                                 const core::ModelCost &cost);

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
