/**
 * @file
 * Golden-section search, the local refinement of the pipeline-degree
 * solver's per-case minimisations. The paper solves each case objective
 * f1..f4 (all of the convex form A*r + B/r + C) with SLSQP (§4.3).
 */
#ifndef FSMOE_SOLVER_MINIMIZE_H
#define FSMOE_SOLVER_MINIMIZE_H

#include "base/logging.h"

namespace fsmoe::solver {

/** Outcome of a 1-D minimisation. */
struct Minimum
{
    double x = 0.0; ///< Argmin.
    double value = 0.0; ///< Objective at the argmin.
};

/**
 * Golden-section search for a unimodal objective @p f, any callable
 * double(double), on [lo, hi] down to a bracket of width @p tol.
 */
template <typename F>
Minimum
goldenSection(const F &f, double lo, double hi, double tol = 1e-6)
{
    FSMOE_CHECK_ARG(lo <= hi, "goldenSection requires lo <= hi");
    constexpr double kInvPhi = 0.6180339887498949;
    double a = lo, b = hi;
    double c = b - kInvPhi * (b - a);
    double d = a + kInvPhi * (b - a);
    double fc = f(c), fd = f(d);
    while (b - a > tol) {
        if (fc < fd) {
            b = d;
            d = c;
            fd = fc;
            c = b - kInvPhi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + kInvPhi * (b - a);
            fd = f(d);
        }
    }
    double x = 0.5 * (a + b);
    return {x, f(x)};
}

} // namespace fsmoe::solver

#endif // FSMOE_SOLVER_MINIMIZE_H
