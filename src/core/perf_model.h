/**
 * @file
 * Linear performance models for communication and computation tasks.
 *
 * Paper §4.1 Eq. 1: the per-chunk time of a task whose total volume n
 * is split into r chunks is t_{*,r} = alpha + (n/r) * beta. A
 * PerfModelSet bundles the five models FSMoE needs (AlltoAll,
 * AllGather, ReduceScatter, AllReduce, GEMM) and prices whole-task and
 * per-chunk durations for a Workload.
 */
#ifndef FSMOE_CORE_PERF_MODEL_H
#define FSMOE_CORE_PERF_MODEL_H

#include "base/fp_contract.h"
#include "core/moe_config.h"
#include "sim/cluster.h"

namespace fsmoe::core {

/** One fitted linear model t(n) = alpha + beta * n. */
struct LinearModel
{
    double alpha = 0.0; ///< Startup time, ms.
    double beta = 0.0;  ///< ms per byte (comm) or per MAC (compute).
    double r2 = 1.0;    ///< Fit quality (1 for ground-truth models).

    /** Whole-task time at volume @p n. */
    double predict(double n) const { return alpha + beta * n; }

    /** Per-chunk time when volume @p n is split into @p r chunks. */
    double chunkTime(double n, double r) const
    {
        return alpha + beta * (n / r);
    }

    /** Inverse: the volume that takes time @p t (paper §5.1 g_inv). */
    double inverse(double t) const
    {
        return beta > 0.0 ? (t - alpha) / beta : 0.0;
    }
};

/** The five models used by the scheduler. */
struct PerfModelSet
{
    LinearModel alltoall;
    LinearModel allgather;
    LinearModel reducescatter;
    LinearModel allreduce;
    LinearModel gemm;

    /** Adopt a cluster's ground-truth coefficients directly. */
    static PerfModelSet fromCluster(const sim::ClusterSpec &spec);
};

/**
 * Durations of every task class of one MoE layer, forward phase, at
 * pipeline degree 1 (whole-task times). Backward-phase adjustments
 * (2x expert compute, §4.4) are applied by backwardTimes().
 */
struct PhaseTimes
{
    double a2a = 0.0;       ///< One AlltoAll (dispatch == combine).
    double allgather = 0.0; ///< ESP-AllGather.
    double reducescatter = 0.0; ///< ESP-ReduceScatter.
    double experts = 0.0;   ///< Expert FFN compute.
    double routing = 0.0;   ///< Gating.
    double order = 0.0;     ///< (I-)Ordering.
    double attention = 0.0; ///< Attention / dense compute.
    double gradAllReduce = 0.0; ///< Gradient-AllReduce (backward only).
};

/** Forward-phase task durations for @p w under @p models. */
PhaseTimes forwardTimes(const PerfModelSet &models, const Workload &w);

/**
 * Backward-phase durations: expert/attention compute doubles (weight
 * and input gradients, §4.4), communications repeat at equal volume,
 * and Gradient-AllReduce covers the layer's dense gradient bytes.
 */
PhaseTimes backwardTimes(const PerfModelSet &models, const Workload &w);

} // namespace fsmoe::core

#endif // FSMOE_CORE_PERF_MODEL_H
