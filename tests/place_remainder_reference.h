/**
 * @file
 * The retained full-raise step-2 DP.
 *
 * This is core::placeRemainder as it was before each layer carried
 * the envelope its predecessor settled: every B_i is built from
 * layer i's gain by raising it with all of its shifted candidates
 * across the whole domain, one sweep each. The production DP
 * (src/core/grad_partition.cc) copies the settled prefix of B_{i-1}
 * and sweeps only the tail, and must stay *bit-identical* to this
 * one: tests/grad_partition_test.cc checks both on the demo
 * partitions and on seeded random stacks, identical and not.
 *
 * Keep this file dumb and obviously correct; it is the oracle.
 */
#ifndef FSMOE_TESTS_PLACE_REMAINDER_REFERENCE_H
#define FSMOE_TESTS_PLACE_REMAINDER_REFERENCE_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/perf_model.h"
#include "core/pipeline_solver.h"

namespace fsmoe::core::reference {

/** One piece of a gain function: slope 0 or 1 after s. */
struct Piece
{
    double s;  ///< Start, bytes.
    double v;  ///< Gain just after s, bytes.
    bool rise; ///< Slope 1, else 0.
};

/** A gain function on (0, end] with its ends and drops. */
struct Gain
{
    std::vector<Piece> pieces;
    double end = 0.0;
    std::vector<double> ends;
    std::vector<double> drops;

    double
    at(double x) const
    {
        auto it = std::lower_bound(
            pieces.begin() + 1, pieces.end(), x,
            [](const Piece &p, double v) { return p.s < v; });
        const Piece &p = *(it - 1);
        return p.v + (p.rise ? x - p.s : 0.0);
    }

    void
    findBreaks(double eps)
    {
        ends.clear();
        drops.clear();
        for (size_t k = 0; k < pieces.size(); ++k) {
            const Piece &p = pieces[k];
            const bool last = k + 1 == pieces.size();
            const double to = last ? end : pieces[k + 1].s;
            if (p.rise && (last || !pieces[k + 1].rise))
                ends.push_back(to);
            const double left = p.v + (p.rise ? to - p.s : 0.0);
            if (last || left > pieces[k + 1].v + eps)
                drops.push_back(to);
        }
    }
};

/** Append a piece, merging continuations and dropping slivers. */
inline void
push(std::vector<Piece> &out, double eps, double s, double v, bool rise)
{
    while (!out.empty()) {
        const Piece last = out.back();
        const double lv = last.v + (last.rise ? s - last.s : 0.0);
        if (last.rise == rise && std::abs(lv - v) <= eps)
            return;
        if (s - last.s > eps)
            break;
        out.pop_back();
        v -= rise ? s - last.s : 0.0;
        s = last.s;
    }
    out.push_back({s, v, rise});
}

/** env := max(env, f(x - dx) + dv) on (lo, hi]; counts its steps. */
inline void
raise(Gain &env, const Gain &f, double dx, double dv, double lo, double hi,
      double eps, std::vector<Piece> &scratch, uint64_t &steps)
{
    hi = std::min(hi, env.end);
    if (f.pieces.empty() || !(lo < hi))
        return;
    const std::vector<Piece> &ep = env.pieces;
    const auto after = [](double v, const Piece &p) { return v < p.s; };
    size_t e = static_cast<size_t>(
        std::upper_bound(ep.begin() + 1, ep.end(), lo, after) - ep.begin() -
        1);
    scratch.assign(ep.begin(), ep.begin() + static_cast<long>(e));
    const auto out = [&](double s, double v, bool rise) {
        push(scratch, eps, s, v, rise);
    };
    const auto env_at = [&](double x) {
        return ep[e].v + (ep[e].rise ? x - ep[e].s : 0.0);
    };
    if (ep[e].s < lo)
        out(ep[e].s, ep[e].v, ep[e].rise);
    size_t c = 0;
    for (double x = lo; x < hi; ++steps) {
        while (e + 1 < ep.size() && ep[e + 1].s <= x)
            ++e;
        while (c + 1 < f.pieces.size() && f.pieces[c + 1].s + dx <= x)
            ++c;
        double next = e + 1 < ep.size() ? std::min(hi, ep[e + 1].s) : hi;
        if (c + 1 < f.pieces.size())
            next = std::min(next, f.pieces[c + 1].s + dx);
        const Piece &fp = f.pieces[c];
        const bool er = ep[e].rise;
        const double ev = env_at(x);
        const double fv = fp.v + dv + (fp.rise ? x - (fp.s + dx) : 0.0);
        const double d0 = fv - ev;
        const double d1 =
            d0 + ((fp.rise ? 1.0 : 0.0) - (er ? 1.0 : 0.0)) * (next - x);
        if (d0 > 0.0) {
            out(x, fv, fp.rise);
            if (d1 < 0.0)
                out(x + d0, fv, er);
        } else {
            out(x, ev, er);
            if (d1 > 0.0)
                out(x - d0, ev, fp.rise);
        }
        x = next;
    }
    if (hi < env.end) {
        while (e + 1 < ep.size() && ep[e + 1].s <= hi)
            ++e;
        out(hi, env_at(hi), ep[e].rise);
        scratch.insert(scratch.end(), ep.begin() + static_cast<long>(e) + 1,
                       ep.end());
    }
    env.pieces.swap(scratch);
}

/** Layer gain: flat bytes of [t0, t0 + beta x] less the jump. */
inline Gain
layerGain(const std::vector<DegreeTable::Interval> &flats, double t0,
          double beta, double jump, double end, double eps,
          std::vector<Piece> &scratch)
{
    Gain g;
    g.end = end;
    if (!(end > 0.0))
        return g;
    scratch.clear();
    const auto out = [&](double s, double v, bool rise) {
        push(scratch, eps, s, v, rise);
    };
    double x = 0.0, v = -jump;
    out(0.0, v, false);
    for (const DegreeTable::Interval &f : flats) {
        const double lo = std::max(x, (f.lo - t0) / beta);
        const double hi = std::min(end, (f.hi - t0) / beta);
        if (!(lo < hi))
            continue;
        out(x, v, false);
        out(lo, v, true);
        v += hi - lo;
        x = hi;
    }
    if (x < end)
        out(x, v, false);
    g.pieces.swap(scratch);
    g.findBreaks(eps);
    return g;
}

/**
 * The full-raise placeRemainder: same contract as the production one.
 * Adds its sweep steps, as solver.partition.dp.steps counts them, to
 * @p steps when given.
 */
inline std::vector<double>
placeRemainder(const std::vector<std::vector<DegreeTable::Interval>> &flats,
               const std::vector<double> &filled,
               const std::vector<double> &available,
               const LinearModel &allreduce, uint64_t *steps = nullptr)
{
    uint64_t swept = 0;
    const size_t n = flats.size();
    if (!(n >= 1 && filled.size() == n && available.size() == n))
        throw std::invalid_argument(
            "one flat list, fill and availability per layer");
    std::vector<double> x(n, 0.0);
    const double remaining = available.back();
    const double alpha = allreduce.alpha, beta = allreduce.beta;
    if (!(remaining > 0.0) || !(beta > 0.0))
        return x;
    const double eps = 1e-13 * remaining;

    std::vector<double> cap(n);
    double c = remaining;
    for (size_t i = n; i-- > 0;)
        cap[i] = c = std::max(0.0, std::min(c, available[i]));

    std::vector<Piece> scratch;
    std::vector<Gain> gain(n), best(n);
    for (size_t i = 0; i < n; ++i) {
        const double t0 = alpha + beta * filled[i];
        double jump = 0.0;
        if (!(filled[i] > 0.0)) {
            double flat = 0.0;
            for (const DegreeTable::Interval &f : flats[i])
                flat += std::max(0.0, std::min(f.hi, alpha) -
                                          std::max(f.lo, 0.0));
            jump = (alpha - flat) / beta;
        }
        gain[i] = layerGain(flats[i], t0, beta, jump, cap[i], eps, scratch);
        Gain &env = best[i];
        env = gain[i];
        if (i == 0 || best[i - 1].pieces.empty())
            continue;
        const Gain &prev = best[i - 1];
        raise(env, prev, 0.0, 0.0, 0.0, prev.end, eps, scratch, swept);
        for (double e : gain[i].ends)
            raise(env, prev, e, gain[i].at(e), e, e + prev.end, eps,
                  scratch, swept);
        for (double d : prev.drops)
            raise(env, gain[i], d, prev.at(d), d, env.end, eps, scratch,
                  swept);
        env.findBreaks(eps);
    }
    if (steps)
        *steps += swept;

    double s = remaining;
    for (size_t i = n; i-- > 0 && s > 0.0;) {
        double take = s, value = gain[i].at(s);
        const auto consider = [&](double xi, double v) {
            if (v > value + eps || (v >= value - eps && xi > take)) {
                take = xi;
                value = v;
            }
        };
        if (i > 0 && !best[i - 1].pieces.empty()) {
            const Gain &prev = best[i - 1];
            if (s <= prev.end)
                consider(0.0, prev.at(s));
            for (double e : gain[i].ends)
                if (e < s && s - e <= prev.end)
                    consider(e, prev.at(s - e) + gain[i].at(e));
            for (double d : prev.drops)
                if (d < s)
                    consider(s - d, prev.at(d) + gain[i].at(s - d));
        }
        x[i] = take > eps ? take : 0.0;
        s -= take;
    }
    size_t last = n - 1;
    while (last > 0 && x[last] == 0.0)
        --last;
    double others = 0.0;
    for (size_t i = 0; i < n; ++i)
        if (i != last)
            others += x[i];
    x[last] = remaining - others;
    return x;
}

} // namespace fsmoe::core::reference

#endif // FSMOE_TESTS_PLACE_REMAINDER_REFERENCE_H
