/**
 * @file
 * Adaptive gradient partitioning for Gradient-AllReduce (paper §5).
 *
 * Gradient-AllReduce is inter-node traffic and therefore cannot simply
 * ride under an MoE layer whose inter-node link is busy with AlltoAll.
 * The partitioner slices the model's gradient bytes and assigns them to
 * the places in backpropagation where the inter-node link has slack:
 *
 *  - Step 1 (greedy, Eqs. 3-4): every generalized layer (an MoE layer
 *    plus the dense ops before the next one) exposes an overlappable
 *    window — dense compute time outside the MoE pipeline plus the
 *    pipeline-internal slack t_olp,moe of §5.2. Pending gradients from
 *    already-executed layers fill these windows first.
 *
 *  - Step 2 (Eq. 5): gradients that no window absorbed ride as extra
 *    t_gar inputs to the layers' pipelines, placed to minimise the
 *    summed layer makespans (each the minimum over degrees r) plus
 *    the exposed tail. The paper searches this placement with
 *    differential evolution; placeRemainder solves it exactly.
 *
 * Layers are indexed in *backward execution order*: index 0 is the
 * last model layer, which backpropagation reaches first. Gradients
 * produced by layer j can only overlap layers executed after it
 * (indices > j) — the causality constraint of Eq. 5.
 */
#ifndef FSMOE_CORE_GRAD_PARTITION_H
#define FSMOE_CORE_GRAD_PARTITION_H

#include <vector>

#include "core/perf_model.h"
#include "core/pipeline_solver.h"

namespace fsmoe::core {

/**
 * The partitioner's plan revision: bumped whenever a change moves the
 * plans partitionGradients returns, so the tuner's persisted answers
 * priced by another revision are never served. Revision 2 replaced
 * step 2's differential evolution with placeRemainder.
 */
constexpr int kPartitionRevision = 2;

/** One generalized layer (paper §5.2) in backward execution order. */
struct GeneralizedLayer
{
    /// Backward-phase pipeline problem with tGar = 0.
    PipelineProblem moe;
    /// Dense backward compute time outside the MoE pipeline that the
    /// inter-node link can freely overlap (attention etc.), ms.
    double denseOlpMs = 0.0;
    /// Gradient bytes this layer contributes when its backward ends.
    double gradBytes = 0.0;
};

/** Result of the two-step partitioning. */
struct GradPartitionPlan
{
    /// Bytes whose AllReduce is overlapped with dense compute, per layer.
    std::vector<double> denseBytes;
    /// Bytes ridden inside the MoE pipeline (window fill + step 2).
    std::vector<double> moeBytes;
    /// Resulting t_gar handed to the pipeline solver, per layer.
    std::vector<double> tGar;
    /// Per-layer pipeline solutions at the final t_gar values.
    std::vector<PipelineSolution> solutions;
    /// Gradient bytes left un-overlapped, AllReduced after backward.
    double exposedBytes = 0.0;
    /// Predicted total backward time: sum of layer MoE times, dense
    /// times, and the exposed AllReduce tail, ms.
    double totalTimeMs = 0.0;
    /// Always 0: step 2 runs no generations since it solves exactly.
    /// Kept for perfbench's traced replica.
    int deGenerations = 0;
};

/**
 * Step 2 alone: the extra bytes x_i layer i's pipeline carries on top
 * of its step-1 fill m_i = @p filled[i], minimising
 *
 *     sum_i F_i(gar(m_i + x_i)) + gar(R - sum_i x_i)
 *
 * subject to x_i >= 0 and x_0 + ... + x_i <= @p available[i], where
 * R = available.back(), gar(b) = alpha + beta b for b > 0 and 0 for
 * b = 0, and F_i is the envelope whose flat t_gar intervals are
 * @p flats[i] (DegreeTable::flats).
 *
 * Why a DP over piecewise-linear functions is exact (in real
 * arithmetic; ties are resolved to 1e-13 R bytes):
 *  - Each F_i has slope 0 on its flats and 1 elsewhere in t_gar, and
 *    gar has slope beta in bytes, the same as the tail. So a byte
 *    moved from the tail into layer i costs nothing where F_i rises
 *    and saves beta where it is flat: the objective is a constant
 *    minus beta * sum_i G_i(x_i), plus alpha while a tail is left.
 *    G_i(x) counts the bytes of [m_i, m_i + x] that F_i spends flat,
 *    less the jump J_i = (F_i(alpha) - F_i(0)) / beta when m_i = 0
 *    and x > 0 (gar jumps from 0 to alpha at the first byte).
 *  - A tail never pays: moving it into the last layer costs at most
 *    J <= alpha / beta. So the optimum carries exactly R.
 *  - B_i(S), the most gain of layers 0..i carrying exactly S bytes, is
 *    max_x B_{i-1}(S - x) + G_i(x): piecewise linear with slopes 0 and
 *    1, dropping where a prefix bound ends its domain. For a fixed S
 *    the sum moves by -1, 0 or 1 per byte of x, so it peaks at x = 0,
 *    x = S, where a rising piece of G_i ends, or where B_{i-1} drops
 *    at S - x. B_i is the upper envelope of those shifted copies of
 *    B_{i-1} and G_i, and the walk back from B_{n-1}(R) picks each x_i
 *    from the same candidates.
 *  - The G_i are not concave, so no greedy is exact: a layer may have
 *    to skip a near flat and leave its bytes to a later layer when the
 *    prefix bounds bind.
 *  - Carry-over. When layer i has layer i-1's flats and step-1 fill
 *    (hence its jump), G_i = G_{i-1} on G_{i-1}'s domain, since the
 *    caps never decrease. Then B_i = B_{i-1} on any prefix (0, L] on
 *    which B_{i-1} = B_{i-2}: for S <= L, a split z + y + x = S over
 *    layers 0..i-2, i-1 and i has B_{i-2}(z) + G(y) <= B_{i-1}(z + y)
 *    = B_{i-2}(z + y), and B_{i-2}(z + y) + G(x) <= B_{i-1}(S) with
 *    layer i-1 carrying x; and x = 0 gives B_i >= B_{i-1}. So B_i
 *    keeps the leading pieces B_{i-1} shares bit for bit with
 *    B_{i-2}, and its raises sweep only the rest. Any other layer
 *    raises its whole domain. That the kept pieces are also those the
 *    full raises rebuild in floating point is tested, not proven:
 *    tests/grad_partition_test.cc compares the plans with the
 *    full-raise DP's (tests/place_remainder_reference.h) bit for bit.
 *    On identical layers the settled prefix grows layer by layer; on
 *    the demo grid's partitions the sweep shrinks by 46%.
 *
 * Ties break to the largest x_i from the last layer back, so the
 * earliest layers carry the fewest bytes and the remainder rides the
 * last. The result sums to R, or is all zero when R = 0 or beta <= 0.
 */
std::vector<double>
placeRemainder(const std::vector<std::vector<DegreeTable::Interval>> &flats,
               const std::vector<double> &filled,
               const std::vector<double> &available,
               const LinearModel &allreduce);

/**
 * Run both partitioning steps. Step 2's plan replaces step 1's only
 * when its finalized totalTimeMs is lower: placeRemainder minimises
 * the envelope's makespans, which Algorithm 1 may not reach.
 *
 * @param layers    Generalized layers in backward execution order.
 * @param allreduce Fitted AllReduce model (paper §5.1).
 * @param enableStep2  Disable to get the greedy-only plan (ablation).
 * @param mergedChannel  Model intra-node collectives as sharing the
 *                  inter-node channel (the No-IIO ablation), which
 *                  shrinks the overlappable windows accordingly.
 */
GradPartitionPlan
partitionGradients(const std::vector<GeneralizedLayer> &layers,
                   const LinearModel &allreduce, bool enable_step2 = true,
                   bool merged_channel = false);

} // namespace fsmoe::core

#endif // FSMOE_CORE_GRAD_PARTITION_H
