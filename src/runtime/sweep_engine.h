/**
 * @file
 * The scenario-sweep engine: fans Scenario evaluations across a
 * ThreadPool, memoizing both stages of an evaluation —
 *
 *   1. ModelCost derivation, keyed by Scenario::costKey() (every
 *      field except the schedule), so all schedule variants of one
 *      configuration price the workload once; and
 *   2. full SimResults, keyed by (costKey, schedule spec), so repeated
 *      sweeps — warm re-runs, overlapping grids, regression
 *      baselines — skip graph construction and simulation entirely.
 *
 * Determinism contract: the simulator itself is single-threaded and
 * deterministic, and the engine parallelises only *across* scenarios —
 * each scenario's graph is built and simulated by exactly one worker,
 * and results land in input order. A sweep on N threads is therefore
 * byte-identical to the same sweep on 1 thread, cached results are
 * byte-identical to recomputed ones (runtime_test asserts both), and
 * cache hit/miss counts depend only on the scenario list, never on
 * thread timing (see costFor()).
 *
 * Thread-safety: run() must not be called concurrently from multiple
 * threads on one engine (results are keyed by input index); stats(),
 * clearCostCache() and clearSimCache() may be called from any thread
 * at any time. Both caches persist across run() calls until cleared.
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
#include "sim/task_graph.h"

namespace fsmoe::runtime {

/** Engine configuration. */
struct SweepOptions
{
    /// Worker threads; 0 picks the hardware concurrency.
    int numThreads = 0;
    /// Also retain each scenario's TaskGraph (needed for Chrome-trace
    /// export; costs memory proportional to grid size). Graphs are
    /// never cached, so this bypasses the SimResult cache: every
    /// scenario simulates, and sim hit/miss counters do not move.
    bool keepGraphs = false;
    /// Memoize SimResults by (costKey, schedule). Disable to force
    /// re-simulation (e.g. when benchmarking the simulator itself).
    bool enableSimCache = true;
};

/** Outcome of one scenario. */
struct ScenarioResult
{
    Scenario scenario;
    double makespanMs = 0.0;
    sim::SimResult sim;   ///< Full per-task timing.
    sim::TaskGraph graph; ///< Populated only with keepGraphs.
};

/** Counters of one engine lifetime (caches persist across run calls). */
struct SweepStats
{
    size_t scenariosRun = 0;
    size_t costCacheHits = 0;
    size_t costCacheMisses = 0;
    size_t simCacheHits = 0;
    size_t simCacheMisses = 0;
    double lastSweepWallMs = 0.0;

    // Per-stage wall time, summed across workers (so on N threads the
    // stages can add up to ~N x lastSweepWallMs). Only cache-miss work
    // is counted — a cache hit contributes nothing. Graph build
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
     * Reentrant with respect to both caches; not safe to call
     * concurrently from multiple threads. A single scenario is
     * evaluated on the calling thread, without starting a pool.
     */
    std::vector<ScenarioResult> run(const std::vector<Scenario> &scenarios);

    /**
     * Evaluate one scenario on the calling thread, through the caches
     * the options enable: the per-scenario body of run(), and the one
     * path in the repo that yields a ScenarioResult. Creates no
     * threads, so a forked service worker can call it
     * (service/sweep_server.h).
     * Throws whatever cost derivation or the schedule build throws.
     */
    ScenarioResult evaluate(const Scenario &s);

    /**
     * @p schedule's makespan on @p cost when it is below @p cutoff,
     * else +inf, and with @p kept its graph and SimResult
     * (core::Schedule::makespanBelow): a losing schedule may stop
     * before its graph is built or simulated. Neither cache is read or
     * filled, since a cut result has no SimResult. The time counts as
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

    /** Drop every memoized SimResult. */
    void clearSimCache();

  private:
    /**
     * Memoized ModelCost lookup. The first caller of a key inserts an
     * in-flight future and computes (a miss); every later caller —
     * including concurrent ones — waits on that future (a hit), so hit
     * counts depend only on the scenario list, never on thread timing.
     */
    std::shared_ptr<const core::ModelCost> costFor(const Scenario &s);

    /**
     * Memoized simulation keyed by (costKey, schedule), same
     * in-flight-future protocol as costFor(). @p cost must be the
     * scenario's own ModelCost (used on a miss).
     */
    std::shared_ptr<const sim::SimResult>
    simFor(const Scenario &s, const std::shared_ptr<const core::ModelCost> &cost);

    /**
     * core::Schedule::simulate() for @p s, charging its two stages to
     * SweepStats::graphBuildMs / simulateMs: the build, with any
     * degree search, whose winner's result is handed back, and only
     * when nothing was handed back, the Simulator::run of the built
     * graph. With @p graph_out the built graph is retained (the
     * keepGraphs path).
     */
    sim::SimResult timedSimulate(const Scenario &s,
                                 const core::ModelCost &cost,
                                 sim::TaskGraph *graph_out = nullptr);

    SweepOptions options_;
    mutable std::mutex mu_;
    std::unordered_map<std::string,
                       std::shared_future<
                           std::shared_ptr<const core::ModelCost>>>
        cost_cache_;
    std::unordered_map<std::string,
                       std::shared_future<
                           std::shared_ptr<const sim::SimResult>>>
        sim_cache_;
    SweepStats stats_;
};

} // namespace fsmoe::runtime

#endif // FSMOE_RUNTIME_SWEEP_ENGINE_H
