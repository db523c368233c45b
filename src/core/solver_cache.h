/**
 * @file
 * Process-wide memoization of the schedule solvers.
 *
 * The FSMoE schedule runs Algorithm 1 (solvePipeline /
 * solvePipelineMerged) once per layer per build and the gradient
 * partitioner (partitionGradients) once per build. Within one model
 * every layer poses the identical PipelineProblem, and across a sweep
 * many scenarios share problems outright (warm re-runs, overlapping
 * grids, schedule variants of one configuration), so the solves are
 * memoized here, keyed by the *bit patterns* of every input field.
 * Bit-exact keys mean a cache hit returns the identical solution the
 * solver would have produced — results never depend on cache state,
 * only wall time does.
 *
 * Thread-safety: all functions are safe to call concurrently (one
 * internal mutex per cache). Two threads racing on the same cold key
 * may both compute; both results are identical and either is stored —
 * a deliberate simplification over the sweep engine's in-flight-future
 * protocol, since solver results (unlike its counters) cannot differ.
 *
 * Statistics feed `fsmoe_sweep --profile`'s per-stage breakdown; see
 * docs/PERFORMANCE.md.
 */
#ifndef FSMOE_CORE_SOLVER_CACHE_H
#define FSMOE_CORE_SOLVER_CACHE_H

#include <cstdint>
#include <vector>

#include "core/grad_partition.h"
#include "core/pipeline_solver.h"
#include "solver/differential_evolution.h"

namespace fsmoe::core {

/** Cumulative cache counters (process lifetime, all threads). */
struct SolverCacheStats
{
    uint64_t pipelineHits = 0;   ///< solvePipeline(+Merged) cache hits.
    uint64_t pipelineMisses = 0; ///< Cold Algorithm-1 solves.
    uint64_t partitionHits = 0;  ///< partitionGradients cache hits.
    uint64_t partitionMisses = 0; ///< Cold gradient partitions.
    double pipelineSolveMs = 0.0;  ///< Wall time in cold Algorithm-1 solves.
    double partitionSolveMs = 0.0; ///< Wall time in cold partitions.
};

/** Memoized solvePipeline (Algorithm 1, separate channels). */
PipelineSolution cachedSolvePipeline(const PipelineProblem &p);

/** Memoized solvePipelineMerged (single-channel ablation model). */
PipelineSolution cachedSolvePipelineMerged(const PipelineProblem &p);

/** Memoized partitionGradients (steps 1 and 2). */
GradPartitionPlan
cachedPartitionGradients(const std::vector<GeneralizedLayer> &layers,
                         const LinearModel &allreduce, bool enable_step2,
                         bool merged_channel);

/**
 * The same entry as the overload above; @p de is ignored. Step 2 ran
 * differential evolution once, and perfbench's traced replica still
 * passes its configuration.
 */
GradPartitionPlan
cachedPartitionGradients(const std::vector<GeneralizedLayer> &layers,
                         const LinearModel &allreduce,
                         const solver::DeConfig &de, bool enable_step2,
                         bool merged_channel);

/** Snapshot of the cumulative counters. */
SolverCacheStats solverCacheStats();

/**
 * Drop every memoized solution and zero the counters (benchmarks use
 * this to measure genuinely cold solves).
 */
void clearSolverCaches();

} // namespace fsmoe::core

#endif // FSMOE_CORE_SOLVER_CACHE_H
