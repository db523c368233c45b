#include "core/grad_partition.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>

#include "base/logging.h"
#include "base/stats.h"

namespace fsmoe::core {

namespace {

/** AllReduce time for a byte count, zero for an empty slice. */
double
garTime(const LinearModel &ar, double bytes)
{
    return bytes > 0.0 ? ar.predict(bytes) : 0.0;
}

/** Bytes whose AllReduce fits inside a window of @p ms milliseconds. */
double
garCapacity(const LinearModel &ar, double ms)
{
    return std::max(0.0, ar.inverse(ms));
}

uint64_t
bitsOf(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

bool
sameBits(const TaskModel &a, const TaskModel &b)
{
    return bitsOf(a.alpha) == bitsOf(b.alpha) &&
           bitsOf(a.beta) == bitsOf(b.beta) && bitsOf(a.n) == bitsOf(b.n);
}

/**
 * Bitwise equality of every input but tGar, field by field as the
 * solver cache keys them: -0.0 and 0.0 differ, and struct padding is
 * never read.
 */
bool
sameShape(const PipelineProblem &a, const PipelineProblem &b)
{
    return sameBits(a.a2a, b.a2a) && sameBits(a.ag, b.ag) &&
           sameBits(a.rs, b.rs) && sameBits(a.exp, b.exp) &&
           a.rMax == b.rMax;
}

/**
 * The per-layer pipeline solves of one partition. Layers whose
 * problems are bitwise-identical (within one model, all of them) share
 * one group: one set of envelope flats for step 2, one Algorithm-1
 * grid, and one memo of Algorithm-1 (or merged-channel) solutions
 * keyed by the bit pattern of tGar, so identical (problem, tGar)
 * inputs solve once.
 */
class LayerSolver
{
  public:
    LayerSolver(const std::vector<GeneralizedLayer> &layers, bool merged)
        : merged_(merged)
    {
        groupOf_.reserve(layers.size());
        for (const GeneralizedLayer &gl : layers) {
            size_t g = 0;
            while (g < groups_.size() &&
                   !sameShape(groups_[g].problem, gl.moe))
                ++g;
            if (g == groups_.size())
                groups_.push_back(
                    {gl.moe, DegreeTable(gl.moe).flats(merged), {}, {}});
            groupOf_.push_back(g);
        }
    }

    /** Where layer @p i's minimum makespan is flat in t_gar. */
    const std::vector<DegreeTable::Interval> &
    flats(size_t i) const
    {
        return groups_[groupOf_[i]].flats;
    }

    /** The solver's solution for layer @p i's problem at @p t_gar. */
    PipelineSolution
    solve(size_t i, double t_gar)
    {
        Group &group = groups_[groupOf_[i]];
        const uint64_t key = bitsOf(t_gar);
        for (const auto &[bits, sol] : group.solved)
            if (bits == key)
                return sol;
        PipelineProblem prob = group.problem;
        prob.tGar = t_gar;
        if (merged_) {
            group.solved.emplace_back(key, solvePipelineMerged(prob));
        } else {
            if (!group.grid)
                group.grid.emplace(group.problem);
            group.solved.emplace_back(key, solvePipeline(prob, *group.grid));
        }
        return group.solved.back().second;
    }

  private:
    struct Group
    {
        PipelineProblem problem;
        std::vector<DegreeTable::Interval> flats;
        std::vector<std::pair<uint64_t, PipelineSolution>> solved;
        /// Algorithm 1's grid, built at the group's first solve.
        std::optional<PipelineGrid> grid;
    };
    bool merged_;
    std::vector<Group> groups_;
    std::vector<size_t> groupOf_; ///< Group index per layer.
};

/** Fill a plan's solutions, times and total from its byte assignment. */
void
finalizePlan(GradPartitionPlan &plan,
             const std::vector<GeneralizedLayer> &layers,
             const LinearModel &ar, LayerSolver &solver)
{
    const size_t n = layers.size();
    plan.tGar.assign(n, 0.0);
    plan.solutions.resize(n);
    plan.totalTimeMs = 0.0;
    for (size_t i = 0; i < n; ++i) {
        plan.tGar[i] = garTime(ar, plan.moeBytes[i]);
        plan.solutions[i] = solver.solve(i, plan.tGar[i]);
        plan.totalTimeMs += plan.solutions[i].tMoe + layers[i].denseOlpMs;
    }
    plan.totalTimeMs += garTime(ar, plan.exposedBytes);
}

/** One piece of a gain function: slope 0 or 1 after s. */
struct Piece
{
    double s;  ///< Start, bytes.
    double v;  ///< Gain just after s, bytes.
    bool rise; ///< Slope 1, else 0.
};

bool
samePiece(const Piece &a, const Piece &b)
{
    return bitsOf(a.s) == bitsOf(b.s) && bitsOf(a.v) == bitsOf(b.v) &&
           a.rise == b.rise;
}

/** Index of the last of @p n pieces starting at or before @p x. */
size_t
pieceAt(const Piece *p, size_t n, double x)
{
    return static_cast<size_t>(
        std::upper_bound(p + 1, p + n, x,
                         [](double v, const Piece &q) { return v < q.s; }) -
        p - 1);
}

/**
 * A piecewise-linear gain function of bytes on (0, end], slopes 0
 * and 1 only: piece k spans (s_k, s_{k+1}]. No pieces: only x = 0.
 * It may drop where a piece starts: a domain that ended there.
 */
struct Gain
{
    std::vector<Piece> pieces;
    double end = 0.0;
    /// Where a rising piece ends: the best byte counts of a layer
    /// (layer gains only).
    std::vector<double> ends;
    /// Where the gain drops, and end: the best byte counts of a prefix
    /// (prefix envelopes only).
    std::vector<double> drops;

    /** Gain at @p x in (0, end]; at a drop, the piece ending there. */
    double
    at(double x) const
    {
        auto it = std::lower_bound(
            pieces.begin() + 1, pieces.end(), x,
            [](const Piece &p, double v) { return p.s < v; });
        const Piece &p = *(it - 1);
        return p.v + (p.rise ? x - p.s : 0.0);
    }

    /** Record the ends from the pieces. */
    void
    findEnds()
    {
        const size_t n = pieces.size();
        for (size_t k = 0; k < n; ++k)
            if (pieces[k].rise && (k + 1 == n || !pieces[k + 1].rise))
                ends.push_back(k + 1 == n ? end : pieces[k + 1].s);
    }

    /**
     * Record the drops by more than @p eps of pieces @p from on; those
     * of the pieces before it are already recorded.
     */
    void
    findDrops(double eps, size_t from = 0)
    {
        const Piece *p = pieces.data();
        const size_t n = pieces.size();
        for (size_t k = from; k + 1 < n; ++k)
            if (p[k].v + (p[k].rise ? p[k + 1].s - p[k].s : 0.0) >
                p[k + 1].v + eps)
                drops.push_back(p[k + 1].s);
        if (n > 0)
            drops.push_back(end);
    }
};

/**
 * Append a piece to @p out, merging a continuation of the last one
 * and dropping a last one shorter than @p eps: rounding leaves slivers
 * of ulps where two candidates cross or touch.
 */
void
push(std::vector<Piece> &out, double eps, double s, double v, bool rise)
{
    while (!out.empty()) {
        const Piece last = out.back();
        const double lv = last.v + (last.rise ? s - last.s : 0.0);
        if (last.rise == rise && std::abs(lv - v) <= eps)
            return;
        if (s - last.s > eps)
            break;
        out.pop_back(); // a sliver: this piece starts there instead
        v -= rise ? s - last.s : 0.0;
        s = last.s;
    }
    out.push_back({s, v, rise});
}

/**
 * env := max(env, f(x - dx) + dv) on (lo, hi], the shifted copy being
 * -inf elsewhere, with lo >= dx and lo at or after env's first piece.
 * Pieces outside (lo, hi] are copied; inside, one sweep over both
 * piece lists, and where the two slopes differ by one, a crossing is
 * exactly |difference| away. Returns the sweep's steps.
 */
uint64_t
raise(Gain &env, const Gain &f, double dx, double dv, double lo, double hi,
      double eps, std::vector<Piece> &scratch)
{
    hi = std::min(hi, env.end);
    if (f.pieces.empty() || !(lo < hi))
        return 0;
    const Piece *const ep = env.pieces.data();
    const size_t en = env.pieces.size();
    const Piece *const fp = f.pieces.data();
    const size_t fn = f.pieces.size();
    size_t e = pieceAt(ep, en, lo);
    scratch.assign(ep, ep + e);
    const auto out = [&](double s, double v, bool rise) {
        push(scratch, eps, s, v, rise);
    };
    if (ep[e].s < lo)
        out(ep[e].s, ep[e].v, ep[e].rise);
    uint64_t steps = 0;
    size_t c = static_cast<size_t>(
        std::partition_point(fp + 1, fp + fn,
                             [&](const Piece &p) { return p.s + dx <= lo; }) -
        fp - 1);
    for (double x = lo; x < hi; ++steps) {
        while (e + 1 < en && ep[e + 1].s <= x)
            ++e;
        while (c + 1 < fn && fp[c + 1].s + dx <= x)
            ++c;
        double next = e + 1 < en ? std::min(hi, ep[e + 1].s) : hi;
        if (c + 1 < fn)
            next = std::min(next, fp[c + 1].s + dx);
        const bool er = ep[e].rise, fr = fp[c].rise;
        const double ev = ep[e].v + (er ? x - ep[e].s : 0.0);
        const double fv = fp[c].v + dv + (fr ? x - (fp[c].s + dx) : 0.0);
        const double d0 = fv - ev;
        const double d1 =
            d0 + ((fr ? 1.0 : 0.0) - (er ? 1.0 : 0.0)) * (next - x);
        if (d0 > 0.0) {
            out(x, fv, fr);
            if (d1 < 0.0) // env rises through f at x + d0
                out(x + d0, fv, er);
        } else {
            out(x, ev, er);
            if (d1 > 0.0) // f rises through env at x - d0
                out(x - d0, ev, fr);
        }
        x = next;
    }
    if (hi < env.end) {
        while (e + 1 < en && ep[e + 1].s <= hi)
            ++e;
        out(hi, ep[e].v + (ep[e].rise ? hi - ep[e].s : 0.0), ep[e].rise);
        scratch.insert(scratch.end(), ep + e + 1, ep + en);
    }
    env.pieces.swap(scratch);
    return steps;
}

/**
 * Layer gain w(x) - J [x > 0] on (0, end]: the bytes of [t0, t0 +
 * beta x] the envelope spends flat, less the jump J in bytes.
 */
Gain
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
    g.findEnds();
    return g;
}

bool
sameFlats(const std::vector<DegreeTable::Interval> &a,
          const std::vector<DegreeTable::Interval> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t k = 0; k < a.size(); ++k)
        if (bitsOf(a[k].lo) != bitsOf(b[k].lo) ||
            bitsOf(a[k].hi) != bitsOf(b[k].hi))
            return false;
    return true;
}

/**
 * How far B_{i-1} = @p prev agrees with B_{i-2} = @p older, given
 * their first @p keep pieces are equal: up to the first start or end
 * either has after those pieces.
 */
double
settledEnd(const Gain &prev, const Gain &older, size_t keep)
{
    return std::min(keep < prev.pieces.size() ? prev.pieces[keep].s
                                              : prev.end,
                    keep < older.pieces.size() ? older.pieces[keep].s
                                               : older.end);
}

} // namespace

std::vector<double>
placeRemainder(const std::vector<std::vector<DegreeTable::Interval>> &flats,
               const std::vector<double> &filled,
               const std::vector<double> &available,
               const LinearModel &allreduce)
{
    const size_t n = flats.size();
    FSMOE_CHECK_ARG(n >= 1 && filled.size() == n && available.size() == n,
                    "one flat list, fill and availability per layer");
    std::vector<double> x(n, 0.0);
    const double remaining = available.back();
    const double alpha = allreduce.alpha, beta = allreduce.beta;
    if (!(remaining > 0.0) || !(beta > 0.0))
        return x;
    const double eps = 1e-13 * remaining;

    // cap[i]: the most bytes layers 0..i can carry, min over j >= i of
    // available[j].
    std::vector<double> cap(n);
    double c = remaining;
    for (size_t i = n; i-- > 0;)
        cap[i] = c = std::max(0.0, std::min(c, available[i]));

    // Forward: gain[i] is layer i's gain, best[i](S) the most gain of
    // layers 0..i carrying exactly S bytes (best(0) = 0 always), and
    // settled[i] how many leading pieces best[i] shares, bit for bit,
    // with best[i - 1].
    uint64_t steps = 0;
    std::vector<Piece> scratch;
    std::vector<Gain> gain(n), best(n);
    std::vector<size_t> settled(n, 0);
    Gain tail;
    for (size_t i = 0; i < n; ++i) {
        const double t0 = alpha + beta * filled[i];
        double jump = 0.0;
        if (!(filled[i] > 0.0)) {
            // From t_gar = 0 to alpha at the first byte: the rise
            // outside the flats, in bytes.
            double flat = 0.0;
            for (const DegreeTable::Interval &f : flats[i])
                flat += std::max(0.0, std::min(f.hi, alpha) -
                                          std::max(f.lo, 0.0));
            jump = (alpha - flat) / beta;
        }
        gain[i] = layerGain(flats[i], t0, beta, jump, cap[i], eps, scratch);
        const Gain &g = gain[i];
        Gain &env = best[i];
        if (i == 0 || best[i - 1].pieces.empty()) {
            env.pieces = g.pieces; // x_i = S: nothing before layer i
            env.end = g.end;
            env.findDrops(eps);
            continue;
        }
        const Gain &prev = best[i - 1];
        // Carry-over (grad_partition.h): when layer i's gain is layer
        // i-1's, B_i = B_{i-1} on the prefix (0, from] on which B_{i-1}
        // = B_{i-2}, so B_i keeps those pieces and the raises sweep
        // only (from, end]. Their list starts two kept pieces early: a
        // push may pop the last kept piece as a sliver, and then merges
        // into or stops at the one before, as on the whole list.
        size_t keep = 0, base = 0;
        double from = 0.0;
        if (i >= 2 && settled[i - 1] > 0 &&
            bitsOf(filled[i]) == bitsOf(filled[i - 1]) &&
            sameFlats(flats[i], flats[i - 1])) {
            keep = settled[i - 1];
            base = keep >= 2 ? keep - 2 : 0;
            from = settledEnd(prev, best[i - 2], keep);
        }
        tail.end = g.end;
        if (keep == 0) {
            tail.pieces = g.pieces; // x_i = S
        } else {
            tail.pieces.assign(prev.pieces.begin() + static_cast<long>(base),
                               prev.pieces.begin() + static_cast<long>(keep));
            if (from < g.end) {
                const Piece *gp = g.pieces.data();
                const size_t gn = g.pieces.size();
                size_t k = pieceAt(gp, gn, from);
                push(tail.pieces, eps, from,
                     gp[k].v + (gp[k].rise ? from - gp[k].s : 0.0),
                     gp[k].rise);
                for (++k; k < gn; ++k)
                    push(tail.pieces, eps, gp[k].s, gp[k].v, gp[k].rise);
            }
        }
        steps += raise(tail, prev, 0.0, 0.0, from, prev.end, eps,
                       scratch); // x_i = 0
        for (double e : g.ends)
            steps += raise(tail, prev, e, g.at(e), std::max(e, from),
                           e + prev.end, eps, scratch);
        for (double d : prev.drops) // x_i = S - d
            steps += raise(tail, g, d, prev.at(d), std::max(d, from),
                           tail.end, eps, scratch);
        env.end = tail.end;
        env.pieces.reserve(base + tail.pieces.size());
        env.pieces.assign(prev.pieces.begin(),
                          prev.pieces.begin() + static_cast<long>(base));
        env.pieces.insert(env.pieces.end(), tail.pieces.begin(),
                          tail.pieces.end());
        // The kept pieces before base drop where they did in B_{i-1}.
        const double kept_to = base > 0 ? env.pieces[base].s : 0.0;
        for (double d : prev.drops)
            if (d <= kept_to)
                env.drops.push_back(d);
        env.findDrops(eps, base);
        size_t m = base;
        while (m < env.pieces.size() && m < prev.pieces.size() &&
               samePiece(env.pieces[m], prev.pieces[m]))
            ++m;
        settled[i] = m;
    }
    static stats::Counter &dp_steps =
        stats::counter("solver.partition.dp.steps");
    dp_steps.inc(steps);

    // Backward: the same candidates at the one S each layer ends at.
    // Ties go to the largest x_i, so the earliest layers carry the
    // fewest bytes.
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
    // Rounding residue goes to the last carrying layer, so the plan
    // sums to exactly the remainder and leaves no sliver of a tail.
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

GradPartitionPlan
partitionGradients(const std::vector<GeneralizedLayer> &layers,
                   const LinearModel &allreduce, bool enable_step2,
                   bool merged_channel)
{
    const size_t n = layers.size();
    FSMOE_CHECK_ARG(n >= 1, "need at least one generalized layer");

    GradPartitionPlan plan;
    plan.denseBytes.assign(n, 0.0);
    plan.moeBytes.assign(n, 0.0);
    LayerSolver solver(layers, merged_channel);

    // ---- Step 1 (Eqs. 3-4): greedy window filling. ----------------
    // Walk layers in backward execution order. A layer's gradient
    // becomes available as its backward runs (expert weight gradients
    // are produced chunk by chunk inside the pipeline), so — exactly
    // as Fig. 3d draws it — a layer can hide its *own* gradient as
    // well as anything pending from already-executed layers. Dense
    // windows fill first (they are free), then the pipeline slack.
    double pending = 0.0;
    // Unassigned bytes available at each layer, for step 2's bounds.
    std::vector<double> produced_prefix(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
        pending += layers[i].gradBytes;
        if (pending > 0.0) {
            double dense_cap = garCapacity(allreduce, layers[i].denseOlpMs);
            double take = std::min(pending, dense_cap);
            plan.denseBytes[i] = take;
            pending -= take;
        }
        if (pending > 0.0) {
            PipelineSolution free_sol = solver.solve(i, layers[i].moe.tGar);
            double moe_cap = garCapacity(allreduce, free_sol.tOlpMoe);
            double take = std::min(pending, moe_cap);
            plan.moeBytes[i] = take;
            pending -= take;
        }
        produced_prefix[i] = pending; // bytes still unassigned after i
    }
    plan.exposedBytes = pending;
    finalizePlan(plan, layers, allreduce, solver);
    if (!enable_step2 || pending <= 0.0)
        return plan;

    // ---- Step 2 (Eq. 5): place the remainder exactly. -------------
    std::vector<std::vector<DegreeTable::Interval>> flats;
    flats.reserve(n);
    for (size_t i = 0; i < n; ++i)
        flats.push_back(solver.flats(i));
    const std::vector<double> extra =
        placeRemainder(flats, plan.moeBytes, produced_prefix, allreduce);
    if (std::all_of(extra.begin(), extra.end(),
                    [](double b) { return b == 0.0; }))
        return plan;
    GradPartitionPlan placed = plan;
    for (size_t i = 0; i < n; ++i)
        placed.moeBytes[i] += extra[i];
    placed.exposedBytes = 0.0;
    finalizePlan(placed, layers, allreduce, solver);
    // Step 2 minimises the envelope's makespans; Algorithm 1 may
    // realise them worse, so keep step 1's plan unless this one wins.
    if (placed.totalTimeMs < plan.totalTimeMs)
        return placed;
    return plan;
}

} // namespace fsmoe::core
