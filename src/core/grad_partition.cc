#include "core/grad_partition.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
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
 * one group: one DegreeTable serving the step-2 objective, and one
 * memo of Algorithm-1 (or merged-channel) solutions keyed by the bit
 * pattern of tGar, so identical (problem, tGar) inputs solve once.
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
                groups_.push_back({gl.moe, DegreeTable(gl.moe), {}});
            groupOf_.push_back(g);
        }
    }

    /** Layer @p i's minimum makespan over all degrees at @p t_gar. */
    double
    minTime(size_t i, double t_gar) const
    {
        const DegreeTable &table = groups_[groupOf_[i]].table;
        return merged_ ? table.minMergedTime(t_gar) : table.minTime(t_gar);
    }

    /** A lower bound on every layer's minTime at any t_gar. */
    double
    floor() const
    {
        double f = std::numeric_limits<double>::infinity();
        for (const Group &g : groups_)
            f = std::min(f, merged_ ? g.table.floorMergedTime()
                                    : g.table.floorTime());
        return f;
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
        group.solved.emplace_back(
            key, merged_ ? solvePipelineMerged(prob) : solvePipeline(prob));
        return group.solved.back().second;
    }

  private:
    struct Group
    {
        PipelineProblem problem;
        DegreeTable table;
        std::vector<std::pair<uint64_t, PipelineSolution>> solved;
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

} // namespace

GradPartitionPlan
partitionGradients(const std::vector<GeneralizedLayer> &layers,
                   const LinearModel &allreduce, const solver::DeConfig &de,
                   bool enable_step2, bool merged_channel)
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

    if (!enable_step2 || pending <= 0.0) {
        finalizePlan(plan, layers, allreduce, solver);
        return plan;
    }

    // ---- Step 2 (Eq. 5): optimise the remaining assignment. -------
    // Variables: extra bytes x_i ridden in layer i's pipeline on top of
    // the step-1 fill. Causality: bytes assigned to layers 0..i cannot
    // exceed the bytes left unassigned when layer i runs; violations
    // and over-assignment are penalised.
    const double remaining = pending;
    std::vector<double> lo(n, 0.0), hi(n, remaining);
    // Every layer term is at least the smallest floor and fp addition
    // is monotone, so summing n floors in the objective's order gives a
    // lower bound on its layer sum with no rounding margin needed.
    const double layer_floor = solver.floor();
    double floor_sum = 0.0;
    for (size_t i = 0; i < n; ++i)
        floor_sum += layer_floor;
    uint64_t evals = 0, cut = 0;
    auto objective = [&](const std::vector<double> &x, double cutoff) {
        ++evals;
        double assigned = 0.0;
        double violation = 0.0;
        double cum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            cum += x[i];
            double avail = produced_prefix[i];
            if (cum > avail)
                violation += cum - avail;
        }
        assigned = cum;
        if (assigned > remaining)
            violation += assigned - remaining;
        const double tail = std::max(0.0, remaining - assigned);
        const double tail_time = garTime(allreduce, tail);
        // Penalty scale: one full AllReduce of the violation, squared
        // growth to push DE firmly inside the feasible region.
        const auto finish = [&](double total) {
            total += tail_time;
            if (violation > 0.0) {
                total += garTime(allreduce, violation) * 10.0 +
                         allreduce.beta * violation;
            }
            return total;
        };
        const double bound = finish(floor_sum);
        if (bound > cutoff) {
            ++cut;
            return bound;
        }
        // Each layer's exact integer optimum over all degrees, read
        // from its degree table.
        double total = 0.0;
        for (size_t i = 0; i < n; ++i)
            total += solver.minTime(
                i, garTime(allreduce, plan.moeBytes[i] + x[i]));
        return finish(total);
    };

    solver::DeResult best = solver::differentialEvolution(objective, lo, hi,
                                                          de);
    static stats::Counter &evals_counter =
        stats::counter("solver.partition.de.evals");
    static stats::Counter &cut_counter =
        stats::counter("solver.partition.de.cut");
    evals_counter.inc(evals);
    cut_counter.inc(cut);
    plan.deGenerations = best.generations;

    // Clip the DE solution to the feasible polytope before adopting it.
    double cum = 0.0;
    for (size_t i = 0; i < n; ++i) {
        double avail = produced_prefix[i];
        double x = std::max(0.0, best.x[i]);
        x = std::min(x, std::max(0.0, avail - cum));
        cum += x;
        plan.moeBytes[i] += x;
    }
    plan.exposedBytes = std::max(0.0, remaining - cum);
    finalizePlan(plan, layers, allreduce, solver);
    return plan;
}

} // namespace fsmoe::core
