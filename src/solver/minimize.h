/**
 * @file
 * One-dimensional minimisation used by the pipeline-degree solver.
 *
 * The paper solves each case objective f1..f4 with SLSQP (§4.3). Every
 * objective has the hyperbolic form A*r + B/r + C, which is convex on
 * r > 0, so we provide (a) golden-section search for general convex
 * objectives and (b) a feasibility-aware solve that combines a coarse
 * grid scan with local golden-section refinement — robust for the
 * paper's disjunctive Q-predicate constraint regions, which need not
 * be intervals.
 */
#ifndef FSMOE_SOLVER_MINIMIZE_H
#define FSMOE_SOLVER_MINIMIZE_H

#include <functional>
#include <optional>

namespace fsmoe::solver {

/** Outcome of a 1-D minimisation. */
struct Minimum
{
    double x = 0.0; ///< Argmin.
    double value = 0.0; ///< Objective at the argmin.
};

/**
 * Golden-section search for a unimodal objective on [lo, hi].
 *
 * @param f    Objective.
 * @param lo   Left bound.
 * @param hi   Right bound.
 * @param tol  Termination width.
 */
Minimum goldenSection(const std::function<double(double)> &f, double lo,
                      double hi, double tol = 1e-6);

/**
 * Minimise @p f over [lo, hi] subject to @p feasible(x) being true,
 * where the feasible set may be a union of intervals (the paper's
 * Q-predicate case regions). Scans a uniform grid of @p samples
 * points, keeps feasible candidates, and refines the best one locally
 * with golden-section (clamped to the feasible neighbourhood).
 *
 * @return Nothing when no grid point is feasible.
 */
std::optional<Minimum>
minimizeConstrained(const std::function<double(double)> &f,
                    const std::function<bool(double)> &feasible, double lo,
                    double hi, int samples = 512);

} // namespace fsmoe::solver

#endif // FSMOE_SOLVER_MINIMIZE_H
