#include "core/schedules/schedule.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "base/logging.h"
#include "base/stats.h"

namespace fsmoe::core {

LayerCost
makeLayerCost(const PerfModelSet &models, const LayerShape &shape,
              const ParallelConfig &par)
{
    LayerCost lc;
    lc.workload = deriveWorkload(shape, par);
    lc.fwd = forwardTimes(models, lc.workload);
    lc.bwd = backwardTimes(models, lc.workload);
    return lc;
}

double
Schedule::iterationTimeMs(const ModelCost &model) const
{
    return simulate(model).makespan;
}

sim::TaskGraph
Schedule::buildSimulated(const ModelCost &model,
                         std::optional<sim::SimResult> &simulated) const
{
    simulated.reset();
    return build(model);
}

sim::SimResult
Schedule::simulate(const ModelCost &model, sim::TaskGraph *graph_out) const
{
    std::optional<sim::SimResult> handed_back;
    sim::TaskGraph graph = buildSimulated(model, handed_back);
    sim::SimResult result = handed_back ? std::move(*handed_back)
                                        : sim::Simulator{}.run(graph);
    if (graph_out)
        *graph_out = std::move(graph);
    return result;
}

std::string
Schedule::graphKey(const ModelCost &model) const
{
    (void)model;
    return graph_key_;
}

namespace {

/**
 * Simulator::makespanBelow(graph, cutoff), or with @p kept runBelow,
 * whose result lands in *kept with the graph when it is below.
 */
double
runGraphBelow(sim::TaskGraph graph, double cutoff, SimulatedGraph *kept)
{
    if (kept == nullptr)
        return sim::Simulator{}.makespanBelow(graph, cutoff);
    std::optional<sim::SimResult> result =
        sim::Simulator{}.runBelow(graph, cutoff);
    if (!result)
        return std::numeric_limits<double>::infinity();
    *kept = {std::move(graph), std::move(*result)};
    return kept->sim.makespan;
}

} // namespace

double
Schedule::makespanBelow(const ModelCost &model, double cutoff,
                        SimulatedGraph *kept) const
{
    FSMOE_CHECK_ARG(!std::isnan(cutoff), "makespan cutoff is NaN");
    return runGraphBelow(build(model), cutoff, kept);
}

namespace detail {

const char *
streamName(int stream)
{
    switch (stream) {
      case kCompute: return "compute";
      case kDispatch: return "dispatch";
      case kAllGather: return "allgather";
      case kReduceScatter: return "reducescatter";
      case kCombine: return "combine";
      case kGradAllReduce: return "grad-allreduce";
      default: return nullptr;
    }
}

namespace {

sim::Link
commLink(bool merged)
{
    return merged ? sim::Link::InterNode : sim::Link::IntraNode;
}

} // namespace

void
reserveIteration(sim::TaskGraph &graph, size_t num_layers, int r_max,
                 size_t extra_tasks)
{
    const size_t r = static_cast<size_t>(std::max(1, r_max));
    // Per layer per phase: attention, routing, order, iorder, up to
    // 5r pipeline chunks, and an in-pipeline Gradient-AllReduce; plus
    // slack for per-layer gradient tasks (Lina buckets, Tutel slices,
    // exposed tails) and the end-of-iteration barrier.
    const size_t per_phase = 5 + 5 * r;
    graph.reserve(num_layers * 2 * per_phase + 8 * num_layers + 2 +
                      extra_tasks,
                  num_layers * 2 * (6 * r + 8) + 8 * num_layers + 8 +
                      2 * extra_tasks);
}

sim::TaskId
appendAttention(sim::TaskGraph &graph, const LayerCost &lc, Phase phase,
                sim::TaskId dep)
{
    const PhaseTimes &t = phase == Phase::Forward ? lc.fwd : lc.bwd;
    return graph.addTaskWithDeps("attention", sim::OpType::Attention,
                                 sim::Link::Compute, kCompute, t.attention,
                                 dep >= 0 ? 1 : 0,
                                 [dep](size_t) { return dep; });
}

sim::TaskId
appendAttention(sim::DurationTally &tally, const LayerCost &lc, Phase phase,
                sim::TaskId dep)
{
    const PhaseTimes &t = phase == Phase::Forward ? lc.fwd : lc.bwd;
    // As in appendMoePhase, each lane's compute chain advances.
    const sim::TaskId id = static_cast<sim::TaskId>(tally.size());
    if (!(t.attention >= 0.0 && dep < id))
        tally.reject();
    for (size_t i = 0; i < tally.numLanes(); ++i) {
        sim::DurationTally::Lane &lane = tally.lane(i);
        lane.addTasks(1, kCompute + 1);
        lane.addWork(sim::Link::Compute, t.attention);
        lane.chain(id, lane.finish(dep) + t.attention);
    }
    return id;
}

sim::TaskId
appendMoePhase(sim::DurationTally &tally, const LayerCost &lc,
               const PerfModelSet &models, Phase phase, int r,
               const PipelineBuildOptions &opts, sim::TaskId dep,
               double gar_ms, sim::TaskId *gar_out)
{
    FSMOE_CHECK_ARG(r >= 1, "pipeline degree must be >= 1");
    const PhaseTimes &t = phase == Phase::Forward ? lc.fwd : lc.bwd;
    const PipelineProblem prob =
        makeProblem(models, lc.workload, phase, 0.0, r);

    // Lane i counts the phase at degree r + i, each run of equal tasks
    // in one step (O(1) per lane, not O(r)), with the TaskGraph
    // overload's size(), numStreams() and ids. What its addTask rejects
    // at every degree rejects every lane; a chunk time invalid at some
    // degrees rejects only their lanes.
    // routing, order, r dispatches, the AllReduce, 4r chunk tasks.
    const sim::TaskId first = static_cast<sim::TaskId>(tally.size());
    const sim::TaskId gar = gar_ms > 0.0 ? first + 2 + r : -1;
    const sim::TaskId iorder = first + 2 + 5 * r + (gar >= 0 ? 1 : 0);
    const int streams = 1 + (gar >= 0 ? kGradAllReduce : kCombine);
    if (!(t.routing >= 0.0 && t.order >= 0.0 && dep < first))
        tally.reject();
    // Locals, and one loop per link layout, so that each lane's sums
    // stay in registers through the phase.
    const double routing = t.routing;
    const double order = t.order;
    const auto count_lanes = [&](auto merged) {
        constexpr sim::Link kInter = sim::Link::InterNode;
        constexpr sim::Link kIntra =
            decltype(merged)::value ? kInter : sim::Link::IntraNode;
        constexpr sim::Link kComp = sim::Link::Compute;
        for (size_t i = 0; i < tally.numLanes(); ++i) {
            sim::DurationTally::Lane &lane = tally.lane(i);
            const int lane_r = r + static_cast<int>(i);
            const double c_a2a = prob.a2a.chunk(lane_r);
            const double c_ag = prob.ag.chunk(lane_r);
            const double c_rs = prob.rs.chunk(lane_r);
            const double c_exp = prob.exp.chunk(lane_r);
            if (!(c_a2a >= 0.0 && c_ag >= 0.0 && c_rs >= 0.0 &&
                  c_exp >= 0.0)) {
                lane.reject();
                continue;
            }
            const double n = static_cast<double>(lane_r);
            const double a2a = n * c_a2a;
            const double ag = n * c_ag;
            const double rs = n * c_rs;
            const double exp = n * c_exp;
            lane.addTasks(3 + 5 * static_cast<size_t>(lane_r) +
                              (gar >= 0 ? 1 : 0),
                          streams);
            // Each link's terms in the TaskGraph overload's id order.
            lane.addWork(kComp, routing);
            lane.addWork(kComp, order);
            lane.addWork(kInter, a2a);
            if (gar >= 0)
                lane.addWork(kInter, gar_ms);
            lane.addWork(kIntra, ag);
            lane.addWork(kComp, exp);
            lane.addWork(kIntra, rs);
            lane.addWork(kInter, a2a);
            lane.addWork(kComp, order);

            // Release dates, for the lane's bound. The chunk tasks and
            // the AllReduce start after `order` ends (`ready`), and each
            // AllGather and ReduceScatter also after a dispatch. From
            // `ready` to `iorder` the phase takes at least the largest
            // of: its inter-node link's work (a link runs one task at a
            // time); d + g before the first expert, the r experts on the
            // compute link, and s + c after the last one; and d before
            // the first intra-node task, the intra-node work, and c
            // after the last one (a ReduceScatter, whose combine
            // `iorder` waits for).
            const double intra = ag + rs;
            const double inter = decltype(merged)::value
                                     ? a2a + a2a + intra
                                     : a2a + a2a;
            const double ready = lane.finish(dep) + routing + order;
            lane.release(kInter, ready, inter);
            if (gar >= 0)
                lane.release(kInter, ready, gar_ms);
            if (!decltype(merged)::value)
                lane.release(kIntra, ready + c_a2a, intra);
            const double body =
                std::max({inter, c_a2a + c_ag + exp + c_rs + c_a2a,
                          c_a2a + intra + c_a2a});
            lane.chain(iorder, ready + body + order);
        }
    };
    opts.mergeCommLinks ? count_lanes(std::true_type{})
                        : count_lanes(std::false_type{});
    if (gar_out)
        *gar_out = gar;
    return iorder;
}

sim::TaskId
appendMoePhase(sim::TaskGraph &graph, const LayerCost &lc,
               const PerfModelSet &models, Phase phase, int r,
               const PipelineBuildOptions &opts, sim::TaskId dep,
               double gar_ms, sim::TaskId *gar_out)
{
    FSMOE_CHECK_ARG(r >= 1, "pipeline degree must be >= 1");
    const PhaseTimes &t = phase == Phase::Forward ? lc.fwd : lc.bwd;
    const PipelineProblem prob =
        makeProblem(models, lc.workload, phase, 0.0, r);

    const sim::Link l_inter = sim::Link::InterNode;
    const sim::Link l_intra = commLink(opts.mergeCommLinks);

    const double t_a2a = prob.a2a.chunk(r);
    const double t_ag = prob.ag.chunk(r);
    const double t_rs = prob.rs.chunk(r);
    const double t_exp = prob.exp.chunk(r);

    sim::TaskId routing = graph.addTaskWithDeps(
        "routing", sim::OpType::Routing, sim::Link::Compute, kCompute,
        t.routing, dep >= 0 ? 1 : 0, [dep](size_t) { return dep; });
    sim::TaskId order = graph.addTask("order", sim::OpType::Order,
                                      sim::Link::Compute, kCompute, t.order,
                                      {routing});

    // Pipelined body: dispatch_i -> allgather_i -> experts_i ->
    // reducescatter_i -> combine_i, all chunks independent of each
    // other except through the shared links and streams. Labels are
    // lazy {base, chunk} pairs and chunk ids are computed rather than
    // collected, so none of this allocates on the sweep hot path:
    // dispatch i is first_dispatch + i, and each chunk's four later
    // tasks are contiguous, so combine i is first_combine + 4i.
    constexpr sim::TaskId kChunkTasks = 4;
    const sim::TaskId first_dispatch = static_cast<sim::TaskId>(graph.size());
    for (int i = 0; i < r; ++i) {
        graph.addTask({"d", i}, sim::OpType::AlltoAll, l_inter, kDispatch,
                      t_a2a, {order});
    }
    sim::TaskId gar = -1;
    if (gar_ms > 0.0) {
        // Background priority: the partitioner sized this AllReduce to
        // fit the pipeline's slack, and yielding the channel to
        // AlltoAll chunks keeps it from stretching the pipeline when
        // the estimate is tight. Its own queue keeps later layers'
        // dispatches from queueing behind it; the Fig. 3d placement
        // (after the last dispatch chunk) is its dependency.
        gar = graph.addTask("gar", sim::OpType::GradAllReduce, l_inter,
                            kGradAllReduce, gar_ms,
                            {first_dispatch + r - 1}, /*priority=*/1);
    }
    if (gar_out)
        *gar_out = gar;
    sim::TaskId first_combine = -1;
    for (int i = 0; i < r; ++i) {
        sim::TaskId ag = graph.addTask({"g", i}, sim::OpType::AllGather,
                                       l_intra, kAllGather, t_ag,
                                       {first_dispatch + i});
        sim::TaskId exp = graph.addTask({"e", i}, sim::OpType::Experts,
                                        sim::Link::Compute, kCompute, t_exp,
                                        {ag});
        sim::TaskId rs = graph.addTask({"s", i}, sim::OpType::ReduceScatter,
                                       l_intra, kReduceScatter, t_rs, {exp});
        sim::TaskId comb = graph.addTask({"c", i}, sim::OpType::AlltoAll,
                                         l_inter, kCombine, t_a2a, {rs});
        if (i == 0)
            first_combine = comb;
    }

    // The inverse order waits for every combined chunk, the last one
    // first; the gradient AllReduce does not gate it (only the
    // end-of-iteration barrier waits for AllReduces, so they may spill
    // into later dense work).
    const sim::TaskId last_combine = first_combine + kChunkTasks * (r - 1);
    return graph.addTaskWithDeps(
        "iorder", sim::OpType::Order, sim::Link::Compute, kCompute, t.order,
        static_cast<size_t>(r), [=](size_t i) {
            return i == 0 ? last_combine
                          : first_combine +
                                kChunkTasks * static_cast<sim::TaskId>(i - 1);
        });
}

namespace {

/** Registry handles for the degree search, resolved once. */
struct SearchStats
{
    stats::Counter &candidates =
        stats::counter("schedule.search.candidates");
    stats::Counter &bounded = stats::counter("schedule.search.bounded");
    stats::Counter &simulated = stats::counter("schedule.search.simulated");
    stats::Counter &cut = stats::counter("schedule.search.cut");
    stats::Counter &degreeFreeCut =
        stats::counter("schedule.search.degreeFreeCut");
    stats::Counter &boundWalks = stats::counter("schedule.search.boundWalks");

    static SearchStats &instance()
    {
        static SearchStats s;
        return s;
    }
};

/**
 * @p sched's graph on @p model at degrees @p r .. @p r + @p lanes - 1,
 * counted in one walk into a duration tally with a lane per degree,
 * whose lane i Simulator::makespanLowerBound bounds at degree r + i
 * without building it. Each walk counts in schedule.search.boundWalks.
 * When the walk rejected a lane, the least such degree is emitted into
 * a TaskGraph, whose addTask rejects it with its message, as one walk
 * per degree in ascending order would.
 */
sim::DurationTally
tallyDegrees(const DegreeSchedule &sched, const ModelCost &model, int r,
             int lanes)
{
    sim::DurationTally tally(static_cast<size_t>(lanes));
    sched.emit(tally, model, r);
    SearchStats::instance().boundWalks.inc();
    for (size_t i = 0; i < tally.numLanes(); ++i) {
        if (!tally.lane(i).rejected())
            continue;
        const int rejected = r + static_cast<int>(i);
        sim::TaskGraph alone;
        sched.emit(alone, model, rejected);
        FSMOE_PANIC("degree ", rejected, " was rejected only in a walk");
    }
    return tally;
}

} // namespace

DegreeChoice
searchDegree(const DegreeSchedule &sched, const ModelCost &model,
             double cutoff)
{
    FSMOE_CHECK_ARG(model.rMax >= 1, "rMax must be at least 1");
    FSMOE_CHECK_ARG(!std::isnan(cutoff), "makespan cutoff is NaN");
    const double inf = std::numeric_limits<double>::infinity();
    // Best bound first, so an early incumbent skips the rest.
    const sim::DurationTally tally = tallyDegrees(sched, model, 1, model.rMax);
    std::vector<std::pair<double, int>> order;
    order.reserve(static_cast<size_t>(model.rMax));
    for (int r = 1; r <= model.rMax; ++r)
        order.emplace_back(sim::Simulator::makespanLowerBound(
                               tally, static_cast<size_t>(r - 1)),
                           r);
    std::sort(order.begin(), order.end());

    DegreeChoice best;
    best.makespanMs = cutoff;
    int best_r = 0; // 0 until a candidate finishes below the cutoff.
    uint64_t bounded = 0, simulated = 0, cut = 0;
    const sim::Simulator simulator;
    for (const auto &[bound, r] : order) {
        // The unpruned ascending loop keeps the least r among equal
        // makespans, so a candidate below the incumbent's r also wins
        // a tie, and only one above it must beat the best strictly.
        const bool wins_ties = r < best_r;
        if (wins_ties ? bound > best.makespanMs
                      : bound >= best.makespanMs) {
            ++bounded;
            continue;
        }
        sim::TaskGraph graph;
        sched.emit(graph, model, r);
        ++simulated;
        std::optional<sim::SimResult> result = simulator.runBelow(
            graph, wins_ties ? std::nextafter(best.makespanMs, inf)
                             : best.makespanMs);
        if (result) {
            best_r = r;
            best.r = r;
            best.makespanMs = result->makespan;
            best.graph = std::move(graph);
            best.sim = std::move(*result);
        } else {
            ++cut;
        }
    }
    if (best_r == 0) {
        // No candidate finished below the cutoff. Unseeded, that means
        // a graph with an infinite duration: the choice stays r = 1,
        // emitted here.
        best.makespanMs = inf;
        if (std::isinf(cutoff))
            sched.emit(best.graph, model, best.r);
    }
    SearchStats &st = SearchStats::instance();
    st.candidates.inc(bounded + simulated);
    st.bounded.inc(bounded);
    st.simulated.inc(simulated);
    st.cut.inc(cut);
    return best;
}

sim::TaskGraph
DegreeSchedule::build(const ModelCost &model) const
{
    std::optional<sim::SimResult> unused;
    return buildSimulated(model, unused);
}

sim::TaskGraph
DegreeSchedule::buildSimulated(const ModelCost &model,
                               std::optional<sim::SimResult> &simulated) const
{
    simulated.reset();
    if (degree_ == 0) {
        DegreeChoice choice = searchDegree(*this, model);
        if (choice.makespanMs < std::numeric_limits<double>::infinity())
            simulated = std::move(choice.sim);
        return std::move(choice.graph);
    }
    sim::TaskGraph graph;
    emit(graph, model, degree_);
    return graph;
}

double
DegreeSchedule::makespanBelow(const ModelCost &model, double cutoff,
                              SimulatedGraph *kept) const
{
    FSMOE_CHECK_ARG(!std::isnan(cutoff), "makespan cutoff is NaN");
    const double inf = std::numeric_limits<double>::infinity();
    if (degreeFreeBound(model) >= cutoff) {
        SearchStats::instance().degreeFreeCut.inc();
        return inf;
    }
    if (degree_ == 0) {
        DegreeChoice choice = searchDegree(*this, model, cutoff);
        if (kept != nullptr && choice.makespanMs < inf)
            *kept = {std::move(choice.graph), std::move(choice.sim),
                     choice.r};
        return choice.makespanMs;
    }
    if (makespanLowerBound(model) >= cutoff)
        return inf;
    sim::TaskGraph graph;
    emit(graph, model, degree_);
    return runGraphBelow(std::move(graph), cutoff, kept);
}

double
DegreeSchedule::makespanLowerBound(const ModelCost &model) const
{
    if (degree_ != 0)
        return sim::Simulator::makespanLowerBound(
            tallyDegrees(*this, model, degree_, 1));
    FSMOE_CHECK_ARG(model.rMax >= 1, "rMax must be at least 1");
    const sim::DurationTally tally = tallyDegrees(*this, model, 1, model.rMax);
    double bound = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < tally.numLanes(); ++i)
        bound = std::min(bound, sim::Simulator::makespanLowerBound(tally, i));
    return bound;
}

std::vector<GeneralizedLayer>
makeGeneralizedLayers(const ModelCost &model)
{
    std::vector<GeneralizedLayer> layers;
    layers.reserve(model.layers.size());
    // Backward executes model layers last-to-first.
    for (auto it = model.layers.rbegin(); it != model.layers.rend(); ++it) {
        GeneralizedLayer gl;
        gl.moe = makeProblem(model.models, it->workload, Phase::Backward,
                             0.0, model.rMax);
        gl.denseOlpMs = it->bwd.attention + it->bwd.routing +
                        2.0 * it->bwd.order;
        gl.gradBytes = it->workload.gradBytes;
        layers.push_back(gl);
    }
    return layers;
}

} // namespace detail

} // namespace fsmoe::core
