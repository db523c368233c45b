#include "solver/minimize.h"

#include <limits>

#include "base/logging.h"

namespace fsmoe::solver {

Minimum
goldenSection(const std::function<double(double)> &f, double lo, double hi,
              double tol)
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

std::optional<Minimum>
minimizeConstrained(const std::function<double(double)> &f,
                    const std::function<bool(double)> &feasible, double lo,
                    double hi, int samples)
{
    FSMOE_CHECK_ARG(samples >= 2, "minimizeConstrained needs >= 2 samples");
    FSMOE_CHECK_ARG(lo <= hi, "minimizeConstrained requires lo <= hi");

    if (hi - lo < 1e-12) {
        // Degenerate interval: a single candidate point.
        if (!feasible(lo))
            return std::nullopt;
        return Minimum{lo, f(lo)};
    }
    const double step = (hi - lo) / (samples - 1);
    double best_x = 0.0;
    double best_v = std::numeric_limits<double>::infinity();
    bool found = false;
    for (int i = 0; i < samples; ++i) {
        double x = lo + step * i;
        if (!feasible(x))
            continue;
        double v = f(x);
        if (v < best_v) {
            best_v = v;
            best_x = x;
            found = true;
        }
    }
    if (!found)
        return std::nullopt;

    // Refine within the contiguous feasible neighbourhood of the best
    // grid point so the local solve cannot leave the feasible region.
    double left = best_x, right = best_x;
    while (left - step >= lo && feasible(left - step))
        left -= step;
    while (right + step <= hi && feasible(right + step))
        right += step;
    Minimum refined = goldenSection(f, left, right);
    if (feasible(refined.x) && refined.value < best_v)
        return refined;
    return Minimum{best_x, best_v};
}

} // namespace fsmoe::solver
