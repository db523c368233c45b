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
 *  - Step 2 (differential evolution, Eq. 5): gradients that no window
 *    absorbed are assigned as extra t_gar inputs to the per-layer
 *    pipeline solver, which may re-optimise the degree r to swallow
 *    them cheaply; DE searches the assignment minimising the summed
 *    layer times plus the exposed tail.
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
#include "solver/differential_evolution.h"

namespace fsmoe::core {

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
    /// Generations executed by the step-2 optimiser (0 if skipped).
    int deGenerations = 0;
};

/**
 * Run both partitioning steps.
 *
 * @param layers    Generalized layers in backward execution order.
 * @param allreduce Fitted AllReduce model (paper §5.1).
 * @param de        Differential-evolution configuration for step 2.
 * @param enableStep2  Disable to get the greedy-only plan (ablation).
 * @param mergedChannel  Model intra-node collectives as sharing the
 *                  inter-node channel (the No-IIO ablation), which
 *                  shrinks the overlappable windows accordingly.
 */
GradPartitionPlan
partitionGradients(const std::vector<GeneralizedLayer> &layers,
                   const LinearModel &allreduce,
                   const solver::DeConfig &de = {}, bool enable_step2 = true,
                   bool merged_channel = false);

} // namespace fsmoe::core

#endif // FSMOE_CORE_GRAD_PARTITION_H
