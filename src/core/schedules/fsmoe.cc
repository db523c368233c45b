/**
 * @file
 * The FSMoE schedule (paper Fig. 3d) and its No-IIO ablation.
 *
 * FSMoE: per-layer pipeline degrees solved independently for forward
 * and backward (Algorithm 1), intra-node collectives overlapped with
 * inter-node ones on separate channels, and Gradient-AllReduce traffic
 * placed by the adaptive partitioner (§5) — window-filling bytes ride
 * inside each layer's pipeline right after the last dispatch chunk,
 * dense-window bytes overlap the layer's dense backward work, and any
 * remainder runs as an exposed tail.
 *
 * FSMoE-No-IIO is identical except intra-node collectives share the
 * inter-node channel (no inter/intra overlap), isolating the benefit
 * of contribution 2.
 */
#include "core/schedules/builtins.h"
#include "core/schedules/schedule.h"
#include "core/schedules/schedule_registry.h"
#include "core/solver_cache.h"

namespace fsmoe::core {

namespace {

using namespace detail;

class FsMoeSchedule : public Schedule
{
  public:
    /**
     * @param iio   Overlap intra- and inter-node collectives on
     *              separate channels (false models the No-IIO
     *              ablation).
     * @param step2 Enable the gradient partitioner's step-2 refinement
     *              (disable to ablate adaptive repartitioning).
     */
    FsMoeSchedule(bool iio, bool step2) : iio_(iio), step2_(step2) {}

    sim::TaskGraph
    build(const ModelCost &model) const override
    {
        sim::TaskGraph graph;
        reserveIteration(graph, model.layers.size(), model.rMax);
        PipelineBuildOptions opts;
        opts.mergeCommLinks = !iio_;

        // Forward: each layer gets its own Algorithm-1 degree, served
        // from the solver cache — within one model every layer poses
        // the identical problem, so only the first layer solves cold.
        // The No-IIO ablation serialises intra- and inter-node
        // collectives on one channel, so its degrees come from the
        // merged-channel makespan model instead.
        sim::TaskId dep = -1;
        for (const LayerCost &lc : model.layers) {
            PipelineProblem prob = makeProblem(model.models, lc.workload,
                                               Phase::Forward, 0.0,
                                               model.rMax);
            int r = iio_ ? cachedSolvePipeline(prob).r
                         : cachedSolvePipelineMerged(prob).r;
            dep = appendAttention(graph, lc, Phase::Forward, dep);
            dep = appendMoePhase(graph, lc, model.models, Phase::Forward,
                                 r, opts, dep);
        }

        // Backward: degrees and Gradient-AllReduce placement from the
        // adaptive partitioner. Plan index 0 is the layer backward
        // reaches first (the last model layer).
        GradPartitionPlan plan = cachedPartitionGradients(
            makeGeneralizedLayers(model), model.models.allreduce,
            /*enable_step2=*/step2_, /*merged_channel=*/!iio_);

        std::vector<sim::TaskId> barrier_deps;
        barrier_deps.reserve(2 * model.layers.size() + 2);
        size_t plan_idx = 0;
        for (auto it = model.layers.rbegin(); it != model.layers.rend();
             ++it, ++plan_idx) {
            int r = plan.solutions[plan_idx].r;
            sim::TaskId gar = -1;
            dep = appendMoePhase(graph, *it, model.models, Phase::Backward,
                                 r, opts, dep, plan.tGar[plan_idx], &gar);
            if (gar >= 0)
                barrier_deps.push_back(gar);
            // Dense-window bytes overlap this layer's dense backward as
            // background traffic (the partitioner sized them to fit).
            if (plan.denseBytes[plan_idx] > 0.0) {
                double t = model.models.allreduce.predict(
                    plan.denseBytes[plan_idx]);
                barrier_deps.push_back(graph.addTask(
                    "gar", sim::OpType::GradAllReduce, sim::Link::InterNode,
                    kGradAllReduce, t, {dep}, /*priority=*/1));
            }
            dep = appendAttention(graph, *it, Phase::Backward, dep);
        }
        if (plan.exposedBytes > 0.0) {
            double t = model.models.allreduce.predict(plan.exposedBytes);
            barrier_deps.push_back(
                graph.addTask("gar", sim::OpType::GradAllReduce,
                              sim::Link::InterNode, kGradAllReduce, t,
                              {dep}));
        }
        barrier_deps.push_back(dep);
        graph.addTask("barrier", sim::OpType::Other, sim::Link::Compute,
                      kCompute, 0.0, std::move(barrier_deps));
        return graph;
    }

  private:
    bool iio_;
    bool step2_;
};

ScheduleParamInfo
step2Param()
{
    return {"step2", ScheduleParamType::Bool, "true",
            "enable the gradient partitioner's step-2 refinement",
            0.0};
}

} // namespace

namespace detail {

void
registerFsMoeSchedules(ScheduleRegistry &registry)
{
    ScheduleInfo no_iio;
    no_iio.name = "FSMoE-No-IIO";
    no_iio.aliases = {"no-iio"};
    no_iio.description =
        "FSMoE's adaptive degrees and gradient partitioning but "
        "intra/inter-node collectives serialised on one channel "
        "(the paper's ablation)";
    no_iio.params = {step2Param()};
    registry.registerSchedule(no_iio, [](const ScheduleParams &p) {
        return std::make_unique<FsMoeSchedule>(false,
                                               p.getBool("step2", true));
    });

    ScheduleInfo fsmoe;
    fsmoe.name = "FSMoE";
    fsmoe.description =
        "the full system (Fig. 3d): three streams, intra/inter "
        "overlap, per-phase degrees, adaptive gradient partitioning";
    fsmoe.params = {step2Param()};
    registry.registerSchedule(fsmoe, [](const ScheduleParams &p) {
        return std::make_unique<FsMoeSchedule>(true,
                                               p.getBool("step2", true));
    });
}

} // namespace detail

} // namespace fsmoe::core
