/**
 * @file
 * Tour of the open schedule-plugin API.
 *
 * 1. Registers a custom, out-of-tree schedule ("Eager") with the
 *    process-wide core::ScheduleRegistry — from this file, without
 *    touching library code — declaring a tunable `degree` parameter.
 *    Because this translation unit is linked directly into the
 *    executable, a file-scope ScheduleRegistrar self-registers it at
 *    static-initialization time.
 * 2. Prints the ASCII Gantt chart of every registered schedule's task
 *    graph for one configured MoE layer on Testbed B (the executable
 *    analogue of the paper's Fig. 3) — the custom schedule shows up
 *    exactly like the built-ins.
 * 3. Sweeps a parameterized schedule axis — the custom schedule and
 *    Tutel at several pipeline degrees against full FSMoE — through
 *    the scenario-sweep engine, demonstrating specs like
 *    "tutel?degree=4" as first-class sweep axes.
 *
 * Glyph key in the charts: a=attention, r=routing, o=order, d=dispatch
 * AlltoAll, g=ESP-AllGather, e=experts, s=ESP-ReduceScatter, c=combine
 * AlltoAll, i=inverse order, G=Gradient-AllReduce.
 */
#include <cstdio>
#include <memory>

#include "core/pipeline_solver.h"
#include "core/schedules/schedule.h"
#include "core/schedules/schedule_registry.h"
#include "model/models.h"
#include "runtime/scenario.h"
#include "runtime/sweep_engine.h"
#include "sim/simulator.h"

namespace {

using namespace fsmoe;

/**
 * The custom plugin: a deliberately simple schedule the library does
 * not ship — a fixed-degree pipeline with intra-node collectives on
 * their own channel (like FSMoE) but no degree search, no gradient
 * partitioning, and every layer's Gradient-AllReduce exposed at the
 * end (like DS-MoE). Useful as a "how much does the solver actually
 * buy" reference point.
 */
class EagerSchedule : public core::Schedule
{
  public:
    explicit EagerSchedule(int degree) : degree_(degree) {}

    sim::TaskGraph
    build(const core::ModelCost &model) const override
    {
        using namespace core::detail;
        sim::TaskGraph graph;
        PipelineBuildOptions opts; // separate intra/inter channels
        sim::TaskId dep = -1;
        for (const core::LayerCost &lc : model.layers) {
            dep = appendAttention(graph, lc, core::Phase::Forward, dep);
            dep = appendMoePhase(graph, lc, model.models,
                                 core::Phase::Forward, degree_, opts, dep);
        }
        for (auto it = model.layers.rbegin(); it != model.layers.rend();
             ++it) {
            dep = appendMoePhase(graph, *it, model.models,
                                 core::Phase::Backward, degree_, opts, dep);
            dep = appendAttention(graph, *it, core::Phase::Backward, dep);
        }
        for (const core::LayerCost &lc : model.layers) {
            double t = model.models.allreduce.predict(lc.workload.gradBytes);
            dep = graph.addTask("gar", sim::OpType::GradAllReduce,
                                sim::Link::InterNode, kGradAllReduce, t,
                                {dep});
        }
        return graph;
    }

  private:
    int degree_;
};

core::ScheduleInfo
eagerInfo()
{
    core::ScheduleInfo info;
    info.name = "Eager";
    info.aliases = {"naive-overlap"};
    info.description = "example out-of-tree plugin: fixed-degree "
                       "pipeline, separate channels, exposed gradients";
    info.params = {{"degree", core::ScheduleParamType::Int, "4",
                    "fixed pipeline degree r", 1.0}};
    return info;
}

/// Self-registration at static-init time: this object file is linked
/// directly into the executable, so the registrar always runs.
const core::ScheduleRegistrar eager_registrar(
    eagerInfo(), [](const core::ScheduleParams &p) {
        return std::make_unique<EagerSchedule>(
            static_cast<int>(p.getInt("degree", 4)));
    });

} // namespace

int
main()
{
    sim::ClusterSpec cluster = sim::testbedB();
    core::LayerShape shape;
    shape.batch = 2;
    shape.seqLen = 512;
    shape.embed = 2048;
    shape.hidden = 6144;
    shape.numExperts = cluster.numNodes;

    core::ParallelConfig par = model::paperParallelism(cluster);
    core::ModelCost cost;
    cost.models = core::PerfModelSet::fromCluster(cluster);
    cost.layers.push_back(core::makeLayerCost(cost.models, shape, par));

    std::printf("one configured MoE layer (%s) on %s\n",
                core::describe(shape).c_str(), cluster.name.c_str());

    core::Workload w = cost.layers[0].workload;
    auto fwd = core::solvePipeline(
        core::makeProblem(cost.models, w, core::Phase::Forward));
    auto bwd = core::solvePipeline(core::makeProblem(
        cost.models, w, core::Phase::Backward,
        cost.models.allreduce.predict(w.gradBytes)));
    std::printf("Algorithm 1 degrees: forward r=%d, backward r=%d\n\n",
                fwd.r, bwd.r);

    // Every registered schedule — six built-ins plus the custom
    // "Eager" plugin this file registered.
    for (const std::string &name :
         core::ScheduleRegistry::instance().names()) {
        auto sched = core::Schedule::create(name);
        sim::TaskGraph graph;
        sim::SimResult res = sched->simulate(cost, &graph);
        std::printf("=== %-16s  iteration %8.2f ms ===\n",
                    sched->name().c_str(), res.makespan);
        std::printf("%s", sim::Simulator::gantt(graph, res, 96).c_str());
        std::printf("busy ms: a2a %.2f | gar %.2f | ag %.2f | rs %.2f | "
                    "experts %.2f | attention %.2f\n\n",
                    res.timeOf(sim::OpType::AlltoAll),
                    res.timeOf(sim::OpType::GradAllReduce),
                    res.timeOf(sim::OpType::AllGather),
                    res.timeOf(sim::OpType::ReduceScatter),
                    res.timeOf(sim::OpType::Experts),
                    res.timeOf(sim::OpType::Attention));
    }

    // Parameterized variants as a sweep axis: the custom plugin and
    // Tutel at pinned degrees against full FSMoE, on the sweep engine.
    auto grid = runtime::ScenarioGrid()
                    .models({"gpt2xl-moe"})
                    .clusters({"testbedB"})
                    .seqLens({256})
                    .numLayers({2})
                    .schedules({"fsmoe", "tutel", "tutel?degree=2",
                                "tutel?degree=4", "tutel?degree=8",
                                "eager?degree=2", "eager?degree=4",
                                "eager?degree=8"})
                    .build();
    runtime::SweepEngine engine({/*numThreads=*/2});
    auto results = engine.run(grid);
    std::printf("=== schedule-spec sweep: gpt2xl-moe (2 layers) on %s "
                "===\n",
                cluster.name.c_str());
    std::printf("  %-20s %12s\n", "spec", "iter [ms]");
    for (const auto &r : results)
        std::printf("  %-20s %12.2f\n", r.scenario.schedule.c_str(),
                    r.makespanMs);
    return 0;
}
