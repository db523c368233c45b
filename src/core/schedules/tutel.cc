/**
 * @file
 * Tutel with PipeMoE's adaptive pipelining (paper Fig. 3b), plus the
 * strengthened Tutel-Improved baseline that overlaps Gradient-AllReduce
 * with the dense (non-MoE) parts of backpropagation, and DeepSpeed-MoE's
 * default execution (Fig. 3a), which is Tutel at degree 1 priced with
 * DeepSpeed-MoE's implementation overheads.
 *
 * Modelled limitations of these systems, per the paper:
 *  - one communication channel: intra-node collectives serialise with
 *    inter-node ones (mergeCommLinks);
 *  - a single pipeline degree shared by forward and backward, chosen
 *    adaptively (PipeMoE) by minimising the simulated iteration time;
 *  - plain Tutel leaves Gradient-AllReduce unoverlapped at the end.
 */
#include "core/schedules/builtins.h"
#include "core/schedules/schedule.h"
#include "core/schedules/schedule_registry.h"

namespace fsmoe::core {

namespace {

using namespace detail;

class TutelSchedule : public DegreeSchedule
{
  public:
    /**
     * @param improved Overlap Gradient-AllReduce with dense backward.
     * @param degree   Fixed pipeline degree; 0 searches 1..rMax for
     *                 the simulated-makespan minimiser (PipeMoE).
     */
    TutelSchedule(bool improved, int degree)
        : DegreeSchedule(degree), improved_(improved)
    {
    }

    void emit(sim::TaskGraph &graph, const ModelCost &model,
              int r) const override
    {
        emitInto(graph, model, r);
    }
    void emit(sim::DurationTally &tally, const ModelCost &model,
              int r) const override
    {
        emitInto(tally, model, r);
    }

  private:
    template <typename Sink>
    void
    emitInto(Sink &graph, const ModelCost &model, int r) const
    {
        reserveIteration(graph, model.layers.size(), r);
        PipelineBuildOptions opts;
        opts.mergeCommLinks = true;

        sim::TaskId dep = -1;
        for (const LayerCost &lc : model.layers) {
            dep = appendAttention(graph, lc, Phase::Forward, dep);
            dep = appendMoePhase(graph, lc, model.models, Phase::Forward,
                                 r, opts, dep);
        }
        std::vector<sim::TaskId> gar_tasks;
        gar_tasks.reserve(4 * model.layers.size() + 1);
        for (auto it = model.layers.rbegin(); it != model.layers.rend();
             ++it) {
            dep = appendMoePhase(graph, *it, model.models, Phase::Backward,
                                 r, opts, dep);
            dep = appendAttention(graph, *it, Phase::Backward, dep);
            if (improved_) {
                // The layer's gradients are ready; AllReduce them as
                // background (low-priority) traffic, streamed in a few
                // chunks of one collective (startup paid once) so they
                // fill channel gaps during the remaining dense work
                // without stalling AlltoAll.
                constexpr int kSlices = 4;
                const double slice_bytes =
                    it->workload.gradBytes / kSlices;
                for (int c = 0; c < kSlices; ++c) {
                    double t = model.models.allreduce.beta * slice_bytes +
                               (c == 0 ? model.models.allreduce.alpha
                                       : 0.0);
                    gar_tasks.push_back(graph.addTask(
                        "gar", sim::OpType::GradAllReduce,
                        sim::Link::InterNode, kGradAllReduce, t, {dep},
                        /*priority=*/1));
                }
            }
        }
        if (!improved_) {
            for (const LayerCost &lc : model.layers) {
                double t =
                    model.models.allreduce.predict(lc.workload.gradBytes);
                dep = graph.addTask("gar", sim::OpType::GradAllReduce,
                                    sim::Link::InterNode, kGradAllReduce, t,
                                    {dep});
            }
            return;
        }
        gar_tasks.push_back(dep);
        graph.addTask("barrier", sim::OpType::Other, sim::Link::Compute,
                      kCompute, 0.0, std::move(gar_tasks));
    }

    bool improved_;
};

/**
 * DeepSpeed-MoE's default execution (paper Fig. 3a): Tutel at degree 1,
 * every task back to back and the gradient AllReduces after the
 * backward pass, on a copy of the model priced with DeepSpeed-MoE's
 * staged 2DH AlltoAll and unfused gate and order kernels. An overhead
 * of 0 keeps the ModelCost's (dsA2aOverhead, dsKernelOverhead).
 */
class DsMoeSchedule : public TutelSchedule
{
  public:
    DsMoeSchedule(double a2a_overhead, double kernel_overhead)
        : TutelSchedule(false, 1), a2aOverhead_(a2a_overhead),
          kernelOverhead_(kernel_overhead)
    {
    }

    void emit(sim::TaskGraph &graph, const ModelCost &model,
              int r) const override
    {
        TutelSchedule::emit(graph, priced(model), r);
    }
    void emit(sim::DurationTally &tally, const ModelCost &model,
              int r) const override
    {
        TutelSchedule::emit(tally, priced(model), r);
    }

  private:
    /** The builder times AlltoAll chunks from the workload's bytes. */
    ModelCost
    priced(ModelCost model) const
    {
        const double a2a =
            a2aOverhead_ > 0.0 ? a2aOverhead_ : model.dsA2aOverhead;
        const double kernel =
            kernelOverhead_ > 0.0 ? kernelOverhead_ : model.dsKernelOverhead;
        for (LayerCost &lc : model.layers) {
            lc.workload.a2aBytes *= a2a;
            for (PhaseTimes *t : {&lc.fwd, &lc.bwd}) {
                t->routing *= kernel;
                t->order *= kernel;
            }
        }
        return model;
    }

    double a2aOverhead_;
    double kernelOverhead_;
};

ScheduleParamInfo
degreeParam()
{
    return {"degree", ScheduleParamType::Int, "0",
            "fixed pipeline degree r; 0 searches 1..rMax adaptively",
            0.0, 16.0};
}

} // namespace

namespace detail {

void
registerTutelSchedules(ScheduleRegistry &registry)
{
    ScheduleInfo ds;
    ds.name = "DS-MoE";
    ds.aliases = {"dsmoe", "deepspeed", "sequential"};
    ds.description =
        "DeepSpeed-MoE's default execution (Fig. 3a): every task "
        "back to back, Gradient-AllReduce unoverlapped";
    ds.params = {
        {"a2aOverhead", ScheduleParamType::Double, "0",
         "override for the modelled 2DH AlltoAll overhead factor; "
         "0 uses ModelCost::dsA2aOverhead",
         0.0, std::numeric_limits<double>::max(), false},
        {"kernelOverhead", ScheduleParamType::Double, "0",
         "override for the modelled unfused-kernel overhead factor; "
         "0 uses ModelCost::dsKernelOverhead",
         0.0, std::numeric_limits<double>::max(), false},
    };
    registry.registerSchedule(ds, [](const ScheduleParams &p) {
        return std::make_unique<DsMoeSchedule>(
            p.getDouble("a2aOverhead", 0.0),
            p.getDouble("kernelOverhead", 0.0));
    });

    ScheduleInfo tutel;
    tutel.name = "Tutel";
    tutel.aliases = {"pipemoe"};
    tutel.description =
        "Tutel with PipeMoE's adaptive pipelining (Fig. 3b): one "
        "comm channel, shared fwd/bwd degree, unoverlapped "
        "Gradient-AllReduce";
    tutel.params = {degreeParam()};
    registry.registerSchedule(tutel, [](const ScheduleParams &p) {
        return std::make_unique<TutelSchedule>(
            false, static_cast<int>(p.getInt("degree", 0)));
    });

    ScheduleInfo improved;
    improved.name = "Tutel-Improved";
    improved.description =
        "Tutel plus Gradient-AllReduce overlapped with the dense "
        "(non-MoE) backward parts — the paper's strengthened baseline";
    improved.params = {degreeParam()};
    registry.registerSchedule(improved, [](const ScheduleParams &p) {
        return std::make_unique<TutelSchedule>(
            true, static_cast<int>(p.getInt("degree", 0)));
    });
}

} // namespace detail

} // namespace fsmoe::core
