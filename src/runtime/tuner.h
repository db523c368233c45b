/**
 * @file
 * The schedule auto-tuner: "what should I run?" answered by search.
 *
 * The paper's core claim is that simulation is cheap and accurate
 * enough to *choose* schedules; this module is the product form of
 * that claim. Given a (model, cluster, batch) query, the tuner
 * enumerates every registered schedule, derives each one's search
 * space from its declared parameters (core/schedules/param_space.h),
 * probes candidates through a SweepEngine — so both memo tiers and
 * the thread pool are reused across candidates and across queries —
 * and answers with the best canonical spec plus a Pareto frontier
 * over three objectives:
 *
 *   makespanMs  simulated iteration time (the primary objective);
 *   commBusyMs  total busy time on the two communication links —
 *               the schedule's bandwidth footprint;
 *   peakMemMB   peak concurrent in-flight communication volume,
 *               recovered from the trace by inverting the linear comm
 *               models (buffer pressure of overlap: a schedule that
 *               overlaps everything holds more bytes live at once).
 *
 * Small spaces are searched exhaustively (grid); spaces with a
 * continuous axis fall back to the solver's differential evolution,
 * probing through the same cached engine. Every schedule's bare
 * canonical name is always a candidate, so the tuner's answer is
 * never worse than the best default configuration.
 *
 * Advisor caching: answers are memoized by a key derived from the
 * query and the tuner configuration, together with a digest of the
 * registered schedules (the candidate set), and can be persisted as a
 * JSON cache file (load/save), so a repeated query is a lookup — zero
 * simulations, verifiable via the "sim.runs" stats counter. The
 * persisted form round-trips byte-identically (base/json.h fmtDouble).
 *
 * Determinism contract: fixed DE seed, sequential DE probes, and the
 * engine's parallel-equals-serial guarantee make tune() byte-stable:
 * the same query on any thread count, in Debug or Release, produces
 * an identical answer (tuner_test and CI assert this).
 *
 * Thread-safety: a Tuner is single-threaded (parallelism lives inside
 * its engine); do not share one across threads without external
 * locking.
 */
#ifndef FSMOE_RUNTIME_TUNER_H
#define FSMOE_RUNTIME_TUNER_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/perf_model.h"
#include "runtime/sweep_engine.h"
#include "sim/simulator.h"
#include "sim/task_graph.h"
#include "solver/differential_evolution.h"

namespace fsmoe::runtime {

/** The question: one workload configuration, schedule left open. */
struct TuneQuery
{
    std::string model;   ///< Model preset name (ScenarioRegistry).
    std::string cluster; ///< Cluster preset name.
    int64_t batch = 1;
    int64_t seqLen = 1024;
    int numLayers = 0;  ///< 0 = preset default.
    int numExperts = 0; ///< 0 = one expert per node (paper rule).
    int rMax = 16;      ///< Largest pipeline degree schedules may use.

    /** The Scenario this query describes, schedule unset. */
    Scenario scenario() const;
};

/** Tuner configuration (all defaults are deterministic). */
struct TuneOptions
{
    int numThreads = 0; ///< Engine worker threads; 0 = hardware.
    /// Int axes spanning more values than this become continuous.
    size_t maxGridPerAxis = 32;
    /// Largest full grid enumerated per schedule; larger spaces (and
    /// any space with a continuous axis) use differential evolution.
    size_t maxGridSpecs = 512;
    /// Global top-N candidates (by makespan) carried into the metric
    /// pass that computes comm/memory objectives and the frontier;
    /// each schedule's best candidate is always included as well.
    size_t frontierCandidates = 16;
    /// DE budget for continuous spaces. Every probe goes through the
    /// engine's SimResult cache, so revisited specs are free.
    solver::DeConfig de{16, 24, 0.7, 0.9, 0xf500e7ULL, 1e-9};
};

/** One evaluated configuration with its three objectives. */
struct TuneCandidate
{
    std::string spec; ///< Canonical schedule spec.
    double makespanMs = 0.0;
    double commBusyMs = 0.0;
    double peakMemMB = 0.0;
};

/** The advisor's answer to one query. */
struct TuneAnswer
{
    std::string queryKey; ///< See Tuner::queryKey.
    std::string best;     ///< Canonical spec with the least makespan.
    double bestMakespanMs = 0.0;
    size_t evaluated = 0; ///< Distinct specs probed by the search.
    /// Pareto-optimal candidates of the metric pass, sorted by
    /// (makespanMs, commBusyMs, peakMemMB, spec). Contains best.
    std::vector<TuneCandidate> frontier;
    /// True when this answer came from the advisor cache (not
    /// persisted — a property of the lookup, not the answer).
    bool fromCache = false;
};

/**
 * Pareto frontier of @p candidates, minimizing all three objectives:
 * a candidate survives unless some other candidate is no worse on
 * every objective and strictly better on at least one. Duplicate
 * specs are collapsed first (keeping the first occurrence). The
 * result is sorted by (makespanMs, commBusyMs, peakMemMB, spec).
 */
std::vector<TuneCandidate>
paretoFrontier(std::vector<TuneCandidate> candidates);

/**
 * Peak concurrent in-flight communication volume of a simulated
 * graph, in MB. Each communication task's byte volume is recovered
 * by inverting the matching linear comm model at the task's duration
 * (clamped at 0 — a duration below the model's startup latency
 * carries no measurable volume); a sweep over the trace then finds
 * the maximum volume simultaneously in flight. Finishes are
 * processed before starts at equal timestamps (back-to-back chunks
 * do not double-count). Compute tasks contribute nothing.
 */
double peakConcurrentCommMB(const sim::TaskGraph &graph,
                            const sim::SimResult &sim,
                            const core::PerfModelSet &models);

class Tuner
{
  public:
    explicit Tuner(TuneOptions options = {});

    /**
     * Answer @p query: from the advisor cache when present (zero
     * simulations), by search otherwise (the answer is then cached).
     */
    TuneAnswer tune(const TuneQuery &query);

    /**
     * The query part of the advisor-cache key of @p query under this
     * tuner's configuration: the scenario cost key plus the search
     * settings, so a tuner with a different budget never serves
     * another configuration's answer. The cache pairs it with a
     * digest of the registered schedules, so registering one makes
     * earlier answers stale.
     */
    std::string queryKey(const TuneQuery &query) const;

    /**
     * Merge entries from a persisted advisor-cache JSON file (v2:
     * each entry carries its registry digest). Returns false (leaving
     * the cache unchanged) when the file is missing, unparseable, or
     * has the wrong schema or version; *error explains. Entries whose
     * key collides with an in-memory answer are kept from memory;
     * entries with another registry digest load but are never served.
     */
    bool loadCache(const std::string &path, std::string *error);

    /**
     * Persist every cached answer as deterministic JSON (entries in
     * key order, doubles bit-exact). Returns false on I/O failure.
     */
    bool saveCache(const std::string &path, std::string *error) const;

    /** Number of cached answers. */
    size_t cacheSize() const { return cache_.size(); }

    /**
     * Deterministic JSON of one answer (the fsmoe_tune --out-json
     * payload). Excludes fromCache, so a warm answer serializes
     * byte-identically to the cold answer it repeats.
     */
    static std::string answerJson(const TuneAnswer &answer);

    /** The underlying engine (its caches persist across queries). */
    SweepEngine &engine() { return engine_; }

  private:
    TuneAnswer search(const TuneQuery &query);

    /// (queryKey, registry digest); see queryKey.
    using CacheKey = std::pair<std::string, uint64_t>;

    TuneOptions options_;
    SweepEngine engine_;
    /// key -> answer; ordered so saveCache is deterministic.
    std::map<CacheKey, TuneAnswer> cache_;
};

} // namespace fsmoe::runtime

#endif // FSMOE_RUNTIME_TUNER_H
