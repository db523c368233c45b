/**
 * @file
 * Micro-benchmarks (google-benchmark) backing the paper's overhead
 * claims: Algorithm-1 solve cost (§6.2 reports ~193 ms per case for
 * SLSQP; our combined solve must be far cheaper to run 1458 cases),
 * gradient-partitioning cost (and its degree-table part), the tuner's
 * DE loop and one cold tuner query, simulator throughput (also
 * against the naive reference
 * simulator), journal group commit, gate kernels, the GEMM kernel, and
 * the functional AlltoAll algorithms.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <unistd.h>

#include <benchmark/benchmark.h>

#include "base/stats.h"
#include "core/gate.h"
#include "core/grad_partition.h"
#include "core/pipeline_solver.h"
#include "core/schedules/param_space.h"
#include "core/schedules/schedule.h"
#include "core/schedules/schedule_registry.h"
#include "dist/communicator.h"
#include "model/models.h"
#include "place_remainder_reference.h"
#include "runtime/journal.h"
#include "runtime/result_store.h"
#include "runtime/scenario.h"
#include "runtime/sweep_engine.h"
#include "runtime/tuner.h"
#include "sim/simulator.h"
#include "sim_reference.h"
#include "solver/differential_evolution.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"

namespace {

using namespace fsmoe;

core::PipelineProblem
sampleProblem()
{
    sim::ClusterSpec cluster = sim::testbedB();
    core::PerfModelSet models = core::PerfModelSet::fromCluster(cluster);
    core::LayerShape shape;
    shape.embed = 2048;
    shape.hidden = 6144;
    shape.numExperts = cluster.numNodes;
    core::ParallelConfig par = model::paperParallelism(cluster);
    return core::makeProblem(models, core::deriveWorkload(shape, par),
                             core::Phase::Backward, 1.0);
}

void
BM_SolvePipelineAlgorithm1(benchmark::State &state)
{
    core::PipelineProblem p = sampleProblem();
    for (auto _ : state)
        benchmark::DoNotOptimize(core::solvePipeline(p));
}
BENCHMARK(BM_SolvePipelineAlgorithm1);

void
BM_SolvePipelineExhaustive(benchmark::State &state)
{
    core::PipelineProblem p = sampleProblem();
    for (auto _ : state)
        benchmark::DoNotOptimize(core::solvePipelineExhaustive(p));
}
BENCHMARK(BM_SolvePipelineExhaustive);

/**
 * One partition, both steps, on identical layers: 8 MB of gradients
 * each, or with `binding` 1, 1 MB in the first half of the stack and
 * 15 MB in the second. On the merged channel the latter binds step 2's
 * prefix bounds at 11 of the 24 layers: they carry all that is left
 * when they run, short of their flats' ends.
 */
void
BM_GradPartition(benchmark::State &state)
{
    const int layers = static_cast<int>(state.range(0));
    const bool binding = state.range(3) != 0;
    std::vector<core::GeneralizedLayer> gls;
    for (int i = 0; i < layers; ++i) {
        core::GeneralizedLayer gl;
        gl.moe = sampleProblem();
        gl.moe.tGar = 0.0;
        gl.moe.rMax = static_cast<int>(state.range(1));
        gl.denseOlpMs = 0.5;
        gl.gradBytes = (binding ? (2 * i < layers ? 1.0 : 15.0) : 8.0) *
                       (1 << 20);
        gls.push_back(gl);
    }
    core::LinearModel ar{8.37e-2, 5.99e-7, 1.0};
    const bool merged = state.range(2) != 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::partitionGradients(gls, ar, true, merged));
}
// The demo grid's partitions are stacks of 24 (gpt2xl-moe) and 32
// (mixtral-7b) identical layers, and most of their cost is step 2's DP
// (BM_PlaceRemainderDemoGrid times it on their own inputs). These rows
// use one sample layer at rMax 16 or 64: the final plans solve
// Algorithm 1 for each distinct t_gar (see BM_SolvePipelineAlgorithm1)
// on FSMoE, and scan the merged model's degrees on FSMoE-No-IIO. The
// 48-layer rows are where the DP's carried prefixes pay most: without
// them its sweep grows with the square of the layers.
BENCHMARK(BM_GradPartition)
    ->ArgNames({"layers", "rmax", "merged", "binding"})
    ->Args({4, 64, 0, 0})
    ->Args({12, 64, 0, 0})
    ->Args({24, 16, 0, 0})
    ->Args({24, 16, 1, 0})
    ->Args({24, 16, 1, 1})
    ->Args({48, 16, 0, 0})
    ->Args({48, 16, 1, 1});

/**
 * placeRemainder on the step-2 inputs of the demo grid's 16 gradient
 * partitions (FSMoE and FSMoE-No-IIO on its 8 configurations), built
 * once before timing as partitionGradients poses them after step 1.
 * Items are partitions; `steps` is solver.partition.dp.steps per
 * iteration. The row errors if a plan differs in any bit from the
 * full-raise reference DP (tests/place_remainder_reference.h).
 */
void
BM_PlaceRemainderDemoGrid(benchmark::State &state)
{
    struct Input
    {
        std::vector<std::vector<core::DegreeTable::Interval>> flats;
        std::vector<double> filled, available;
        core::LinearModel ar;
    };
    std::vector<Input> inputs;
    for (const runtime::Scenario &s : runtime::demoGrid({1, 2}, {"FSMoE"})) {
        const core::ModelCost cost =
            runtime::ScenarioRegistry::instance().makeCost(s);
        const std::vector<core::GeneralizedLayer> layers =
            core::detail::makeGeneralizedLayers(cost);
        for (bool merged : {false, true}) {
            const core::GradPartitionPlan step1 = core::partitionGradients(
                layers, cost.models.allreduce, false, merged);
            Input in;
            in.ar = cost.models.allreduce;
            in.filled = step1.moeBytes;
            // The same subtractions step 1 makes, so the same bits.
            double pending = 0.0;
            for (size_t i = 0; i < layers.size(); ++i) {
                in.flats.push_back(
                    core::DegreeTable(layers[i].moe).flats(merged));
                pending += layers[i].gradBytes;
                pending -= step1.denseBytes[i];
                pending -= step1.moeBytes[i];
                in.available.push_back(pending);
            }
            inputs.push_back(std::move(in));
        }
    }
    for (const Input &in : inputs) {
        const std::vector<double> got =
            core::placeRemainder(in.flats, in.filled, in.available, in.ar);
        const std::vector<double> want = core::reference::placeRemainder(
            in.flats, in.filled, in.available, in.ar);
        if (std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(double)) != 0) {
            state.SkipWithError("a plan differs from the reference DP");
            return;
        }
    }
    stats::Counter &steps = stats::counter("solver.partition.dp.steps");
    const uint64_t steps0 = steps.value();
    for (auto _ : state)
        for (const Input &in : inputs)
            benchmark::DoNotOptimize(core::placeRemainder(
                in.flats, in.filled, in.available, in.ar));
    state.counters["steps"] =
        benchmark::Counter(static_cast<double>(steps.value() - steps0),
                           benchmark::Counter::kAvgIterations);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(inputs.size()));
}
BENCHMARK(BM_PlaceRemainderDemoGrid);

/**
 * The tuner's DE loop (d = 24, population 24, 80 generations, never
 * stopping early) over an objective that costs nothing: the MT19937-64
 * draws (about 30 per trial), mutation and selection a search pays on
 * top of its probes. The draws are fixed by the blessed bits, but not
 * how they are made: BM_DeRng prices one.
 */
void
BM_DeLoop(benchmark::State &state)
{
    const size_t d = 24;
    std::vector<double> lo(d, 0.0), hi(d, 1.0);
    solver::DeConfig de;
    de.populationSize = 24;
    de.maxGenerations = 80;
    de.tolerance = -std::numeric_limits<double>::infinity();
    const auto objective = [](const std::vector<double> &x, double) {
        return x[0];
    };
    for (auto _ : state)
        benchmark::DoNotOptimize(
            solver::differentialEvolution(objective, lo, hi, de));
    state.SetItemsProcessed(state.iterations() * 24 * 81);
}
BENCHMARK(BM_DeLoop);

/**
 * One MT19937-64 draw: row 0 is std::mt19937_64, row 1 the block
 * generator DE uses, which yields the same words. Items are draws.
 */
template <typename Engine>
void
drawAll(benchmark::State &state, Engine rng)
{
    for (auto _ : state)
        for (int i = 0; i < 1024; ++i)
            benchmark::DoNotOptimize(rng());
    state.SetItemsProcessed(state.iterations() * 1024);
}

void
BM_DeRng(benchmark::State &state)
{
    if (state.range(0) == 0)
        drawAll(state, std::mt19937_64(solver::DeConfig{}.seed));
    else
        drawAll(state, solver::detail::Mt19937_64(solver::DeConfig{}.seed));
}
BENCHMARK(BM_DeRng)->ArgName("block")->Arg(0)->Arg(1);

/**
 * One DegreeTable query on the sample problem: envelope binary search
 * plus one addition. Items are queries over a fixed spread of t_gar
 * values.
 */
void
BM_DegreeTableMin(benchmark::State &state)
{
    core::PipelineProblem p = sampleProblem();
    p.rMax = static_cast<int>(state.range(0));
    const core::DegreeTable table(p);
    const bool merged = state.range(1) != 0;
    std::vector<double> gars(256);
    for (size_t i = 0; i < gars.size(); ++i)
        gars[i] = 0.05 * static_cast<double>(i * 37 % 256);
    for (auto _ : state) {
        double sum = 0.0;
        for (double g : gars)
            sum += merged ? table.minMergedTime(g) : table.minTime(g);
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(gars.size()));
}
BENCHMARK(BM_DegreeTableMin)
    ->ArgNames({"rmax", "merged"})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1});

void
BM_ScheduleFsMoe(benchmark::State &state)
{
    sim::ClusterSpec cluster = sim::testbedB();
    model::ModelSpec spec = model::mixtral7B(cluster.numNodes, 1, 256, 7);
    core::ModelCost cost = model::makeModelCost(
        spec, cluster, model::paperParallelism(cluster));
    auto sched = core::Schedule::create("fsmoe");
    for (auto _ : state)
        benchmark::DoNotOptimize(sched->iterationTimeMs(cost));
}
BENCHMARK(BM_ScheduleFsMoe);

/** The demo grid's mixtral-7b/testbedB/b2 configuration. */
runtime::Scenario
mixtralTestbedBScenario()
{
    runtime::Scenario scenario;
    scenario.model = "mixtral-7b";
    scenario.cluster = "testbedB";
    scenario.batch = 2;
    scenario.seqLen = 256;
    return scenario;
}

/**
 * One degree-0 build: the degree search, whose winning graph is the
 * build's result. Row 0 is Tutel on the demo grid's
 * mixtral-7b/testbedB/b2 configuration: it picks r = 2 and has the
 * fewest candidates the release-date bound skips, so it is the pruned
 * search's worst demo case. Row 1 is PipeMoE+Lina on the tuner's
 * gpt2xl-moe/testbedA/b1/L1024 query, the search tune-cold runs most.
 * Items are candidate degrees.
 */
void
BM_DegreeSearch(benchmark::State &state)
{
    runtime::Scenario scenario = mixtralTestbedBScenario();
    const char *spec = "tutel";
    if (state.range(0) != 0) {
        scenario.model = "gpt2xl-moe";
        scenario.cluster = "testbedA";
        scenario.batch = 1;
        scenario.seqLen = 1024;
        spec = "lina";
    }
    const core::ModelCost cost =
        runtime::ScenarioRegistry::instance().makeCost(scenario);
    auto sched = core::Schedule::create(spec);
    for (auto _ : state)
        benchmark::DoNotOptimize(sched->build(cost));
    state.SetItemsProcessed(state.iterations() * cost.rMax);
}
BENCHMARK(BM_DegreeSearch)->ArgName("tuner")->Arg(0)->Arg(1);

/**
 * Release-date bounds (DegreeSchedule::makespanLowerBound) of Tutel on
 * mixtral-7b/testbedB/b2. At a fixed r, one candidate's: the schedule
 * emitted into a one-lane duration tally. A phase tallies in O(1), so
 * r = 1 and r = 16 should cost the same. r = 0 is the degree search's
 * walk: one emission into a tally with a lane per degree 1..rMax. The
 * row fails if any lane's bound differs from its degree's one-lane
 * bound.
 */
void
BM_DegreeBound(benchmark::State &state)
{
    const core::ModelCost cost =
        runtime::ScenarioRegistry::instance().makeCost(
            mixtralTestbedBScenario());
    const auto sched = core::Schedule::create(
        "tutel?degree=" + std::to_string(state.range(0)));
    if (state.range(0) == 0) {
        sim::DurationTally walk(static_cast<size_t>(cost.rMax));
        dynamic_cast<const core::detail::DegreeSchedule &>(*sched).emit(
            walk, cost, 1);
        for (int r = 1; r <= cost.rMax; ++r) {
            const double lane = sim::Simulator::makespanLowerBound(
                walk, static_cast<size_t>(r - 1));
            const double alone =
                core::Schedule::create("tutel?degree=" + std::to_string(r))
                    ->makespanLowerBound(cost);
            if (std::memcmp(&lane, &alone, sizeof lane) != 0) {
                state.SkipWithError("a lane differs from its degree's bound");
                return;
            }
        }
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(sched->makespanLowerBound(cost));
}
BENCHMARK(BM_DegreeBound)->ArgName("r")->Arg(0)->Arg(1)->Arg(16);

/**
 * A losing degree-search candidate: Tutel at r on
 * mixtral-7b/testbedB/b2, built once and run through makespanBelow
 * with the r = 2 winner's makespan as the cutoff, as the search runs
 * it. r = 5 is the largest degree the search simulates there (from
 * r = 6 on, the release-date bound skips the candidate unbuilt) and
 * stops at the remaining-work bound after 1,566 of its 1,888 tasks;
 * r = 3, a near tie (1874.4 against 1871.0 ms), after 1,206 of 1,248.
 */
void
BM_LosingCandidate(benchmark::State &state)
{
    const core::ModelCost cost =
        runtime::ScenarioRegistry::instance().makeCost(
            mixtralTestbedBScenario());
    const double cutoff =
        sim::Simulator{}
            .run(core::Schedule::create("tutel?degree=2")->build(cost))
            .makespan;
    const sim::TaskGraph graph =
        core::Schedule::create("tutel?degree=" +
                               std::to_string(state.range(0)))
            ->build(cost);
    const sim::Simulator simulator;
    for (auto _ : state) {
        const double got = simulator.makespanBelow(graph, cutoff);
        if (got != std::numeric_limits<double>::infinity()) {
            state.SkipWithError("the candidate did not lose");
            break;
        }
    }
}
BENCHMARK(BM_LosingCandidate)
    ->ArgName("r")
    ->Arg(3)
    ->Arg(5)
    ->Unit(benchmark::kMicrosecond);

/**
 * A losing tuner DE probe: PipeMoE+Lina at the chunkMB clamp bound
 * (1 KB gradient buckets, 121,333 tasks) on the tuner's
 * gpt2xl-moe/testbedA/b1/L1024 query, at degree 0 (the search) or 1.
 * cutoff:0 builds and runs it in full; cutoff:1 asks makespanBelow
 * with the 30 MB default's makespan as the cutoff, as DE does when the
 * probe's parent is that default, so it stops at its bucket bound
 * (the degree-free bound) before any candidate is tallied.
 */
void
BM_LinaProbe(benchmark::State &state)
{
    runtime::Scenario scenario;
    scenario.model = "gpt2xl-moe";
    scenario.cluster = "testbedA";
    scenario.batch = 1;
    scenario.seqLen = 1024;
    const core::ModelCost cost =
        runtime::ScenarioRegistry::instance().makeCost(scenario);
    const double cutoff =
        sim::Simulator{}.run(core::Schedule::create("lina")->build(cost))
            .makespan;
    auto sched = core::Schedule::create(
        "lina?chunkMB=0.0009765625&degree=" +
        std::to_string(state.range(0)));
    for (auto _ : state) {
        if (state.range(1) == 0)
            benchmark::DoNotOptimize(sim::Simulator{}.run(sched->build(cost)));
        else
            benchmark::DoNotOptimize(sched->makespanBelow(cost, cutoff));
    }
}
BENCHMARK(BM_LinaProbe)
    ->ArgNames({"degree", "cutoff"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMicrosecond);

/**
 * PipeMoE+Lina's degree-free bound (its bucket AllReduces' least
 * total) on the tuner's gpt2xl-moe/testbedA/b1/L1024 query, at 1 KB
 * buckets (chunkKB:1, the chunkMB clamp bound DE's losing probes sit
 * at) and at the 30 MB default (chunkKB:30720). Items are the buckets
 * the schedule emits, which the bound counts in closed form.
 */
void
BM_LinaDegreeFreeBound(benchmark::State &state)
{
    runtime::Scenario scenario;
    scenario.model = "gpt2xl-moe";
    scenario.cluster = "testbedA";
    scenario.batch = 1;
    scenario.seqLen = 1024;
    const core::ModelCost cost =
        runtime::ScenarioRegistry::instance().makeCost(scenario);
    char mb[32];
    std::snprintf(mb, sizeof mb, "%.17g",
                  static_cast<double>(state.range(0)) / 1024.0);
    const auto sched = core::Schedule::create(
        std::string("lina?chunkMB=") + mb + "&degree=1");
    const auto &lina = dynamic_cast<const core::detail::DegreeSchedule &>(
        *sched);
    const sim::TaskGraph graph = sched->build(cost);
    int64_t buckets = 0;
    for (const sim::Task &task : graph.tasks())
        buckets += task.op == sim::OpType::GradAllReduce ? 1 : 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(lina.degreeFreeBound(cost));
    state.SetItemsProcessed(state.iterations() * buckets);
}
BENCHMARK(BM_LinaDegreeFreeBound)->ArgName("chunkKB")->Arg(1)->Arg(30720);

/**
 * One tuner probe's schedule construction: PipeMoE+Lina at a DE point
 * with a full 17-digit chunkMB (rMax 16). typed:0 builds it from its
 * canonical spec text (parse the name and values, check them, run the
 * factory: what Schedule::create does); typed:1 decodes the box point
 * into a ScheduleParams bag and builds from that, as every tuner
 * candidate is built. Both give the same spec(); the row errors if not.
 */
void
BM_CreateSchedule(benchmark::State &state)
{
    const core::ScheduleRegistry &registry =
        core::ScheduleRegistry::instance();
    core::ScheduleInfo info;
    registry.info("lina", &info);
    const core::ParamSpace space = core::deriveParamSpace(info, 16);
    const std::vector<double> x = {47.123456789012345, 3.2};
    std::string error;
    const std::string spec =
        registry.tryCreate(space.schedule, core::paramsFromPoint(space, x),
                           &error)
            ->spec();
    for (auto _ : state) {
        std::unique_ptr<core::Schedule> schedule =
            state.range(0) == 0
                ? registry.tryCreate(spec, &error)
                : registry.tryCreate(space.schedule,
                                     core::paramsFromPoint(space, x), &error);
        if (schedule == nullptr || schedule->spec() != spec) {
            state.SkipWithError("the two paths built different schedules");
            break;
        }
        benchmark::DoNotOptimize(schedule);
    }
}
BENCHMARK(BM_CreateSchedule)->ArgName("typed")->Arg(0)->Arg(1);

/**
 * One cold tuner query on a fresh Tuner, so no advisor-cache answer
 * carries over between iterations. It covers the DE probes, the
 * best-first frontier pass and the metric pass, which reads the
 * frontier pass's graphs. model:0 is fsmoe_tune's demo query
 * (gpt2xl-moe/testbedA, b1, rMax 16), where most DE probes take a
 * chunk of at least the model's gradient bytes and share one graph per
 * degree; perfbench's tune-cold runs four such queries per rep at
 * different DE seeds. model:1 is mixtral-7b/testbedA, the control: its
 * gradient is above chunkMB's 1024 MB top, so no two DE probes share a
 * graph that way.
 */
void
BM_TuneQuery(benchmark::State &state)
{
    runtime::TuneQuery query;
    query.model = state.range(0) == 0 ? "gpt2xl-moe" : "mixtral-7b";
    query.cluster = "testbedA";
    runtime::TuneOptions options;
    options.numThreads = 1;
    for (auto _ : state) {
        runtime::Tuner tuner(options);
        benchmark::DoNotOptimize(tuner.tune(query));
    }
}
BENCHMARK(BM_TuneQuery)
    ->ArgName("model")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * One backward MoE phase (a mixtral-7b layer on testbedB, merged
 * links, with an in-pipeline Gradient-AllReduce) counted into a
 * duration tally at pipeline degree r. path:0 is appendMoePhase's O(1)
 * tally; path:1 replays the same phase's built tasks into the tally
 * one addTask at a time, what a tally cost per task before.
 */
void
BM_PhaseTally(benchmark::State &state)
{
    sim::ClusterSpec cluster = sim::testbedB();
    const core::ModelCost cost = model::makeModelCost(
        model::mixtral7B(cluster.numNodes, 1, 256, 7), cluster,
        model::paperParallelism(cluster));
    const core::LayerCost &lc = cost.layers.front();
    const int r = static_cast<int>(state.range(0));
    core::detail::PipelineBuildOptions opts;
    opts.mergeCommLinks = true;
    const auto append = [&](auto &g) {
        return core::detail::appendMoePhase(g, lc, cost.models,
                                            core::Phase::Backward, r, opts,
                                            -1, /*gar_ms=*/1.0);
    };
    sim::TaskGraph built;
    append(built);
    std::vector<sim::TaskId> deps;
    for (auto _ : state) {
        sim::DurationTally tally;
        if (state.range(1) == 0) {
            benchmark::DoNotOptimize(append(tally));
        } else {
            for (const sim::Task &t : built.tasks()) {
                const sim::DepSpan span = built.deps(t.id);
                deps.assign(span.begin(), span.end());
                tally.addTask(t.label, t.op, t.link, t.stream, t.duration,
                              deps, t.priority);
            }
        }
        benchmark::DoNotOptimize(
            tally.lane(0).linkDurationSum(sim::Link::InterNode));
    }
}
BENCHMARK(BM_PhaseTally)
    ->ArgNames({"r", "path"})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({16, 0})
    ->Args({16, 1});

void
BM_Simulator(benchmark::State &state)
{
    sim::ClusterSpec cluster = sim::testbedB();
    model::ModelSpec spec = model::mixtral7B(cluster.numNodes, 1, 256, 7);
    core::ModelCost cost = model::makeModelCost(
        spec, cluster, model::paperParallelism(cluster));
    sim::TaskGraph graph =
        core::Schedule::create("tutel")->build(cost);
    sim::Simulator simulator;
    for (auto _ : state)
        benchmark::DoNotOptimize(simulator.run(graph));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(graph.size()));
}
BENCHMARK(BM_Simulator);

/**
 * A synthetic pipelined workload: @p num_streams streams of equal
 * length, tasks cycling over links and op classes, each task
 * depending on its stream predecessor and (every third task) on a
 * task of the previous stream — the cross-stream fan-in that makes
 * eligibility tracking non-trivial. ~10% zero-duration barriers and
 * ~20% background-priority tasks mirror real schedule graphs.
 */
sim::TaskGraph
makeSynthetic(int num_tasks, int num_streams)
{
    std::mt19937 rng(0xbe9c4u);
    std::uniform_int_distribution<int> pct(0, 99);
    std::uniform_int_distribution<int> quantum(1, 20);

    sim::TaskGraph g;
    g.reserve(num_tasks, 2 * num_tasks);
    const int per_stream = num_tasks / num_streams;
    std::vector<sim::TaskId> prev_row(num_streams, -1);
    std::vector<sim::TaskId> deps;
    for (int i = 0; i < per_stream; ++i) {
        for (int s = 0; s < num_streams; ++s) {
            deps.clear();
            if (prev_row[s] >= 0)
                deps.push_back(prev_row[s]);
            if (i % 3 == 1 && s > 0 && prev_row[s - 1] >= 0)
                deps.push_back(prev_row[s - 1]);
            const auto link = static_cast<sim::Link>((i + s) % 3);
            const auto op = static_cast<sim::OpType>(
                (i + s) % static_cast<int>(sim::OpType::NumOpTypes));
            const double duration =
                pct(rng) < 10 ? 0.0 : 0.05 * quantum(rng);
            const int priority = pct(rng) < 20 ? 1 : 0;
            prev_row[s] = g.addTask({"t", i * num_streams + s}, op, link,
                                    s, duration, deps, priority);
        }
    }
    return g;
}

/**
 * @p num_tasks independent tasks on @p num_streams streams, all on the
 * inter-node link: every stream head is a candidate for that one link
 * at once, the widest candidate set a graph of this size can hold.
 * Quantised durations (~10% zero) and ~20% background priority.
 */
sim::TaskGraph
makeFlat(int num_tasks, int num_streams)
{
    std::mt19937 rng(0xf1a7u);
    std::uniform_int_distribution<int> pct(0, 99);
    std::uniform_int_distribution<int> quantum(1, 20);

    sim::TaskGraph g;
    g.reserve(num_tasks, 0);
    for (int i = 0; i < num_tasks; ++i) {
        const double duration = pct(rng) < 10 ? 0.0 : 0.05 * quantum(rng);
        const int priority = pct(rng) < 20 ? 1 : 0;
        g.addTask({"t", i}, sim::OpType::AlltoAll, sim::Link::InterNode,
                  i % num_streams, duration, {}, priority);
    }
    return g;
}

/**
 * The production engine against the naive reference simulator
 * (tests/sim_reference.h) on a 16,384-task synthetic graph: 512
 * streams ("wide", where the reference's per-event stream rescan
 * hurts most), 6 streams (the shape real schedules simulate), or, with
 * flat:1, makeFlat's 512 streams on one link, the worst case of the
 * engine's candidate sets. Items are tasks, so items/s reads as the
 * inverse of ns/task. The two engines must agree on the makespan.
 */
void
BM_SimulatorVsReference(benchmark::State &state)
{
    const int streams = static_cast<int>(state.range(0));
    const bool reference = state.range(1) != 0;
    const sim::TaskGraph graph = state.range(2) != 0
                                     ? makeFlat(16384, streams)
                                     : makeSynthetic(16384, streams);
    const double expected = sim::referenceRun(graph).makespan;
    double makespan = 0.0;
    for (auto _ : state) {
        makespan = reference ? sim::referenceRun(graph).makespan
                             : sim::Simulator{}.run(graph).makespan;
        benchmark::DoNotOptimize(makespan);
    }
    if (makespan != expected)
        state.SkipWithError("engine and reference makespans disagree");
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(graph.size()));
}
BENCHMARK(BM_SimulatorVsReference)
    ->ArgNames({"streams", "reference", "flat"})
    ->Args({512, 0, 0})
    ->Args({512, 1, 0})
    ->Args({6, 0, 0})
    ->Args({6, 1, 0})
    ->Args({512, 0, 1})
    ->Args({512, 1, 1});

/**
 * The simulator over the demo grid's 54 final graphs, each built once
 * before timing: `trace:1` is Simulator::run, `trace:0`
 * Simulator::price, what a sweep records. Unlike BM_Simulator, which
 * re-runs one cache-hot graph, this row pays each run's set-up on
 * graphs of the sizes a sweep simulates. The row errors if any bit of
 * a price (makespan, opTime, linkBusyMs) differs from run()'s, or if
 * it holds a trace. Items are tasks.
 */
void
BM_SimulateDemoGraphs(benchmark::State &state)
{
    const bool trace = state.range(0) != 0;
    std::vector<sim::TaskGraph> graphs;
    int64_t tasks = 0;
    const sim::Simulator simulator;
    for (const runtime::Scenario &scenario : runtime::demoGrid()) {
        graphs.push_back(core::Schedule::create(scenario.schedule)
                             ->build(runtime::ScenarioRegistry::instance()
                                         .makeCost(scenario)));
        tasks += static_cast<int64_t>(graphs.back().size());
        const sim::SimResult run = simulator.run(graphs.back());
        const sim::SimResult price = simulator.price(graphs.back());
        if (!price.trace.empty() ||
            std::memcmp(&price.makespan, &run.makespan,
                        sizeof run.makespan) != 0 ||
            std::memcmp(price.opTime.data(), run.opTime.data(),
                        sizeof run.opTime) != 0 ||
            std::memcmp(price.linkBusyMs.data(), run.linkBusyMs.data(),
                        sizeof run.linkBusyMs) != 0) {
            state.SkipWithError(
                ("price differs from run on " + scenario.label()).c_str());
            return;
        }
    }
    for (auto _ : state)
        for (const sim::TaskGraph &graph : graphs)
            benchmark::DoNotOptimize(trace ? simulator.run(graph)
                                           : simulator.price(graph));
    state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_SimulateDemoGraphs)->ArgName("trace")->Arg(0)->Arg(1);

/**
 * The demo grid's 54 records appended to a fresh journal, committed in
 * batches of `batch` records with one fsync each: 1 is a sync per
 * record, 3 one per poll round of a 3-worker service job that finishes
 * a scenario on every worker, 54 one sync in total. It counts the
 * group commit's fsyncs without the noise of worker scheduling. Items
 * are records; the journal's open (its header's atomic write) is not
 * timed.
 */
void
BM_JournalAppend(benchmark::State &state)
{
    static const std::vector<runtime::JournalRecord> records = [] {
        std::vector<runtime::JournalRecord> out;
        runtime::SweepEngine engine;
        const std::vector<runtime::Scenario> grid = runtime::demoGrid();
        for (size_t i = 0; i < grid.size(); ++i)
            out.push_back({i, runtime::SweepResult::fromScenarioResult(
                                  engine.evaluate(grid[i]))});
        return out;
    }();
    std::vector<runtime::Scenario> grid;
    for (const runtime::JournalRecord &rec : records)
        grid.push_back(rec.result.scenario);
    const size_t batch = static_cast<size_t>(state.range(0));
    std::vector<std::vector<runtime::JournalRecord>> rounds;
    for (size_t i = 0; i < records.size(); i += batch)
        rounds.emplace_back(records.begin() + i,
                            records.begin() +
                                std::min(i + batch, records.size()));
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("bench_micro_journal_" + std::to_string(::getpid()) + ".txt"))
            .string();
    std::string error;
    stats::Counter &syncs = stats::counter("robust.journal.syncs");
    const uint64_t syncs0 = syncs.value();
    for (auto _ : state) {
        state.PauseTiming();
        std::remove(path.c_str());
        runtime::Journal journal;
        if (!journal.open(path, grid, /*resume=*/false, &error)) {
            state.SkipWithError(error.c_str());
            break;
        }
        state.ResumeTiming();
        for (const std::vector<runtime::JournalRecord> &round : rounds) {
            if (!journal.appendAll(round, &error)) {
                state.SkipWithError(error.c_str());
                break;
            }
        }
    }
    std::remove(path.c_str());
    state.counters["syncs"] = benchmark::Counter(
        static_cast<double>(syncs.value() - syncs0),
        benchmark::Counter::kAvgIterations);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(records.size()));
}
BENCHMARK(BM_JournalAppend)
    ->ArgName("batch")
    ->Arg(1)
    ->Arg(3)
    ->Arg(54)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_GateForward(benchmark::State &state)
{
    auto kind = static_cast<core::GateKind>(state.range(0));
    Rng rng(3);
    auto gate = core::makeGate(kind, 512, 8, 2, rng);
    Tensor x = rng.normalTensor({512, 512});
    for (auto _ : state)
        benchmark::DoNotOptimize(gate->forward(x));
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_GateForward)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void
BM_Gemm(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(4);
    Tensor a = rng.normalTensor({n, n});
    Tensor b = rng.normalTensor({n, n});
    Tensor c({n, n});
    for (auto _ : state)
        gemm(a, Trans::No, b, Trans::No, c);
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(256);

void
BM_AlltoAllFunctional(benchmark::State &state)
{
    auto algo = static_cast<dist::A2aAlgo>(state.range(0));
    const int world = 8;
    dist::Communicator comm(world);
    Rng rng(5);
    std::vector<Tensor> bufs;
    for (int r = 0; r < world; ++r)
        bufs.push_back(rng.normalTensor({world * 16, 64}));
    dist::Group everyone;
    for (int r = 0; r < world; ++r)
        everyone.push_back(r);
    for (auto _ : state) {
        auto copy = bufs;
        comm.allToAll(copy, everyone, algo, /*ranks_per_node=*/4);
        benchmark::DoNotOptimize(copy);
    }
}
BENCHMARK(BM_AlltoAllFunctional)->Arg(0)->Arg(1)->Arg(2);

} // namespace

BENCHMARK_MAIN();
