/**
 * @file
 * Tests for the six schedule generators: graph validity, per-op time
 * conservation, the performance orderings the paper reports (DS-MoE
 * slowest; FSMoE at least as fast as its No-IIO ablation and the Tutel
 * baselines), exactness of the pruned Tutel/Lina degree search
 * against the unpruned loop, with and without a cutoff,
 * Schedule::makespanBelow against run()'s makespan,
 * Schedule::makespanLowerBound below it, each lane of a search's
 * one-walk duration tally against a one-degree tally,
 * Schedule::simulate, which hands back a search's result, against
 * run(build()), and Schedule::graphKey: specs with one key build one
 * graph.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "base/audit.h"
#include "base/stats.h"
#include "core/schedules/schedule.h"
#include "core/schedules/schedule_registry.h"
#include "model/models.h"
#include "runtime/scenario.h"
#include "sim/cluster.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "test_util.h"

namespace fsmoe::core {
namespace {

ModelCost
smallModel(const sim::ClusterSpec &cluster, int layers = 3,
           int64_t embed = 2048)
{
    LayerShape shape;
    shape.batch = 2;
    shape.seqLen = 512;
    shape.embed = embed;
    shape.hidden = embed * 3;
    shape.numExperts = cluster.numNodes;
    ParallelConfig par = model::paperParallelism(cluster);
    ModelCost cost;
    cost.models = PerfModelSet::fromCluster(cluster);
    for (int i = 0; i < layers; ++i)
        cost.layers.push_back(makeLayerCost(cost.models, shape, par));
    return cost;
}

TEST(Schedules, FactoryCoversAllRegisteredSchedules)
{
    const auto names = ScheduleRegistry::instance().names();
    ASSERT_GE(names.size(), 6u);
    for (const std::string &name : names) {
        auto sched = Schedule::create(name);
        ASSERT_NE(sched, nullptr);
        EXPECT_EQ(sched->name(), name);
        // No parameters given, so the canonical spec is the bare name.
        EXPECT_EQ(sched->spec(), name);
    }
}

TEST(Schedules, GraphsAreValidAndSimulable)
{
    ModelCost cost = smallModel(sim::testbedB());
    for (const std::string &name : ScheduleRegistry::instance().names()) {
        auto sched = Schedule::create(name);
        sim::TaskGraph graph = sched->build(cost);
        EXPECT_FALSE(graph.empty()) << sched->name();
        sim::SimResult res = sim::Simulator{}.run(graph);
        EXPECT_GT(res.makespan, 0.0) << sched->name();
    }
}

TEST(Schedules, OpTimeConservation)
{
    // Total busy time per op class must not depend on the schedule for
    // fixed pipeline-degree-independent classes (attention, routing),
    // and AlltoAll busy time must scale with 2*r*alpha + volume terms.
    ModelCost cost = smallModel(sim::testbedB());
    auto ds = Schedule::create("ds-moe");
    auto fs = Schedule::create("fsmoe");
    sim::SimResult ds_res = ds->simulate(cost);
    sim::SimResult fs_res = fs->simulate(cost);
    EXPECT_NEAR(ds_res.timeOf(sim::OpType::Attention),
                fs_res.timeOf(sim::OpType::Attention), 1e-9);
    // DS-MoE's unfused kernels make its routing busy time strictly
    // larger (the modelled Table-6 kernel gap).
    EXPECT_GT(ds_res.timeOf(sim::OpType::Routing),
              fs_res.timeOf(sim::OpType::Routing));
    // Gradient traffic is conserved in total bytes; AllReduce busy
    // time can only grow via extra per-slice startups.
    EXPECT_GE(fs_res.timeOf(sim::OpType::GradAllReduce) + 1e-9,
              0.0);
}

TEST(Schedules, DsMoeIsSlowest)
{
    for (const sim::ClusterSpec &cluster :
         {sim::testbedA(), sim::testbedB()}) {
        ModelCost cost = smallModel(cluster);
        double ds = Schedule::create("ds-moe")->iterationTimeMs(cost);
        for (const char *spec :
             {"tutel", "tutel-improved", "lina", "no-iio", "fsmoe"}) {
            double t = Schedule::create(spec)->iterationTimeMs(cost);
            EXPECT_LE(t, ds * 1.001)
                << spec << " slower than DS-MoE on " << cluster.name;
        }
    }
}

TEST(Schedules, FsMoeBeatsOrMatchesTutel)
{
    for (const sim::ClusterSpec &cluster :
         {sim::testbedA(), sim::testbedB()}) {
        ModelCost cost = smallModel(cluster);
        double tutel = Schedule::create("tutel")->iterationTimeMs(cost);
        double fsmoe = Schedule::create("fsmoe")->iterationTimeMs(cost);
        EXPECT_LE(fsmoe, tutel * 1.001) << cluster.name;
    }
}

TEST(Schedules, IioOverlapHelps)
{
    // FSMoE with inter/intra overlap must not lose to its ablation.
    ModelCost cost = smallModel(sim::testbedA(), 3, 4096);
    double no_iio =
        Schedule::create("no-iio")->iterationTimeMs(cost);
    double full = Schedule::create("fsmoe")->iterationTimeMs(cost);
    EXPECT_LE(full, no_iio * 1.001);
}

TEST(Schedules, GradientOverlapHelpsTutel)
{
    ModelCost cost = smallModel(sim::testbedB(), 4);
    double plain = Schedule::create("tutel")->iterationTimeMs(cost);
    double improved =
        Schedule::create("tutel-improved")->iterationTimeMs(cost);
    EXPECT_LE(improved, plain * 1.001);
}

TEST(Schedules, SequentialMakespanEqualsSumOfDurations)
{
    ModelCost cost = smallModel(sim::testbedB(), 2);
    auto ds = Schedule::create("ds-moe");
    sim::TaskGraph graph = ds->build(cost);
    double sum = 0.0;
    for (const sim::Task &t : graph.tasks())
        sum += t.duration;
    sim::SimResult res = sim::Simulator{}.run(graph);
    EXPECT_NEAR(res.makespan, sum, 1e-6);
}

TEST(Schedules, FsMoeUsesMultipleStreams)
{
    ModelCost cost = smallModel(sim::testbedB(), 2);
    sim::TaskGraph graph = Schedule::create("fsmoe")->build(cost);
    EXPECT_GE(graph.numStreams(), 3);
    bool has_intra = false;
    for (const sim::Task &t : graph.tasks())
        has_intra |= t.link == sim::Link::IntraNode;
    EXPECT_TRUE(has_intra) << "FSMoE must use the intra-node channel";
}

TEST(Schedules, NoIioKeepsCommOnOneChannel)
{
    ModelCost cost = smallModel(sim::testbedB(), 2);
    sim::TaskGraph graph = Schedule::create("no-iio")->build(cost);
    for (const sim::Task &t : graph.tasks())
        EXPECT_NE(t.link, sim::Link::IntraNode)
            << "No-IIO must serialise " << t.name()
            << " on the inter-node channel";
}

TEST(Schedules, GradAllReduceBytesConservedAcrossSchedules)
{
    ModelCost cost = smallModel(sim::testbedB(), 3);
    const PerfModelSet &m = cost.models;
    double total_bytes = 0.0;
    for (const LayerCost &lc : cost.layers)
        total_bytes += lc.workload.gradBytes;

    for (const std::string &name : ScheduleRegistry::instance().names()) {
        sim::TaskGraph graph = Schedule::create(name)->build(cost);
        double gar_bytes = 0.0;
        for (const sim::Task &t : graph.tasks()) {
            if (t.op == sim::OpType::GradAllReduce)
                gar_bytes += std::max(0.0, m.allreduce.inverse(t.duration));
        }
        // Chunk-streamed AllReduces pay the startup term once, so the
        // naive per-task inversion undercounts by a few alpha-worths;
        // 5% covers every schedule's slicing policy.
        EXPECT_NEAR(gar_bytes, total_bytes, total_bytes * 0.05)
            << name;
    }
}

// ------------------------------------------------ degree-search exactness

/** Bare names of the schedules whose default build searches r. */
std::vector<std::string>
degreeSearchingSchedules()
{
    std::vector<std::string> out;
    for (const ScheduleInfo &info : ScheduleRegistry::instance().list())
        for (const ScheduleParamInfo &p : info.params)
            if (p.key == "degree" && p.defaultValue == "0")
                out.push_back(info.name);
    return out;
}

std::string
withDegree(const std::string &name, int r)
{
    return name + "?degree=" + std::to_string(r);
}

/**
 * The unpruned search, kept only as this oracle: build and fully
 * simulate every fixed-degree variant, keeping a new best, and its
 * graph, on a strict <, ascending in r.
 */
detail::DegreeChoice
naiveSearch(const std::string &name, const ModelCost &cost)
{
    detail::DegreeChoice best;
    best.makespanMs = std::numeric_limits<double>::infinity();
    for (int r = 1; r <= cost.rMax; ++r) {
        sim::TaskGraph g = Schedule::create(withDegree(name, r))->build(cost);
        const double t = sim::Simulator{}.run(g).makespan;
        if (t < best.makespanMs) {
            best.r = r;
            best.makespanMs = t;
            best.graph = std::move(g);
        }
    }
    return best;
}

/** @p sched as the degree schedule it is (Tutel, Tutel-Improved, Lina). */
const detail::DegreeSchedule &
asDegreeSchedule(const Schedule &sched)
{
    const auto *ds = dynamic_cast<const detail::DegreeSchedule *>(&sched);
    FSMOE_ASSERT(ds != nullptr, sched.name(), " takes no degree");
    return *ds;
}

/** Task-by-task equality, deps and label included. */
void
expectSameGraph(const sim::TaskGraph &got, const sim::TaskGraph &want,
                const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    ASSERT_EQ(got.numStreams(), want.numStreams()) << what;
    ASSERT_EQ(got.depPool(), want.depPool()) << what;
    for (size_t i = 0; i < want.size(); ++i) {
        const sim::Task &a = got.tasks()[i];
        const sim::Task &b = want.tasks()[i];
        const bool same =
            a.id == b.id && a.op == b.op && a.link == b.link &&
            a.stream == b.stream && a.priority == b.priority &&
            test::sameBits(a.duration, b.duration) &&
            std::strcmp(a.label.base, b.label.base) == 0 &&
            a.label.index == b.label.index && a.depBegin == b.depBegin &&
            a.depCount == b.depCount;
        ASSERT_TRUE(same) << what << ": task " << i << " ("
                          << b.name() << ") differs";
    }
}

/**
 * The pruned search against the oracle on @p cost, for every degree-
 * searching schedule: the same r, makespan bits and graph from
 * searchDegree itself, emitting through the schedule's own emit() (and
 * so bounding each candidate with its own tally), and the same graph
 * from the schedule's public build().
 */
void
expectPrunedSearchIsExact(const ModelCost &cost, const std::string &what)
{
    for (const std::string &name : degreeSearchingSchedules()) {
        const std::string where = what + " " + name;
        const detail::DegreeChoice want = naiveSearch(name, cost);
        const auto sched = Schedule::create(name);
        const detail::DegreeSchedule &ds = asDegreeSchedule(*sched);
        const detail::DegreeChoice got = detail::searchDegree(ds, cost);
        EXPECT_EQ(got.r, want.r) << where;
        EXPECT_TRUE(test::sameBits(got.makespanMs, want.makespanMs))
            << where << ": " << got.makespanMs << " vs "
            << want.makespanMs;
        expectSameGraph(got.graph, want.graph, where + " (search)");
        EXPECT_TRUE(test::sameBits(got.sim.makespan, want.makespanMs))
            << where;

        const sim::TaskGraph built = sched->build(cost);
        expectSameGraph(built, want.graph, where + " (build)");
        EXPECT_TRUE(test::sameBits(sim::Simulator{}.run(built).makespan,
                                   want.makespanMs))
            << where;
    }
}

/**
 * A seeded random model: either testbed with every fitted coefficient
 * scaled by a factor in [1/4, 4], 1-4 layers of random shapes, and a
 * random rMax. @p zero_latency zeroes every startup term, so chunking
 * is free and makespans tie across r (the strict-< corner).
 */
ModelCost
randomModel(std::mt19937 &rng, bool zero_latency)
{
    std::uniform_int_distribution<int> coin(0, 1);
    std::uniform_real_distribution<double> scale(0.25, 4.0);
    const sim::ClusterSpec cluster =
        coin(rng) ? sim::testbedA() : sim::testbedB();
    ModelCost cost;
    cost.models = PerfModelSet::fromCluster(cluster);
    for (LinearModel *m :
         {&cost.models.alltoall, &cost.models.allgather,
          &cost.models.reducescatter, &cost.models.allreduce,
          &cost.models.gemm}) {
        m->alpha = zero_latency ? 0.0 : m->alpha * scale(rng);
        m->beta *= scale(rng);
    }
    const ParallelConfig par = model::paperParallelism(cluster);
    const int layers = std::uniform_int_distribution<int>(1, 4)(rng);
    for (int i = 0; i < layers; ++i) {
        LayerShape shape;
        shape.batch = 1 << std::uniform_int_distribution<int>(0, 2)(rng);
        shape.seqLen = 256 << std::uniform_int_distribution<int>(0, 2)(rng);
        shape.embed = 1024 << std::uniform_int_distribution<int>(0, 2)(rng);
        shape.hidden =
            shape.embed * std::uniform_int_distribution<int>(2, 4)(rng);
        shape.numExperts = cluster.numNodes;
        cost.layers.push_back(makeLayerCost(cost.models, shape, par));
    }
    cost.rMax = std::uniform_int_distribution<int>(1, 16)(rng);
    return cost;
}

TEST(DegreeSearch, PrunedSearchEqualsTheNaiveLoopOnRandomModels)
{
    ASSERT_EQ(degreeSearchingSchedules().size(), 3u);
    constexpr int kSeeds = 50;
    for (int seed = 0; seed < kSeeds; ++seed) {
        std::mt19937 rng(0xde9eeu + static_cast<unsigned>(seed));
        const bool zero_latency = seed % 3 == 0;
        expectPrunedSearchIsExact(randomModel(rng, zero_latency),
                                  "seed " + std::to_string(seed));
        if (::testing::Test::HasFailure())
            FAIL() << "first divergence at seed " << seed;
    }
}

TEST(DegreeSearch, PrunedSearchEqualsTheNaiveLoopOnTheDemoGrid)
{
    // The demo grid's eight (model, cluster, batch) configurations.
    std::map<std::string, runtime::Scenario> configs;
    for (const runtime::Scenario &s : runtime::demoGrid())
        configs.emplace(s.costKey(), s);
    ASSERT_EQ(configs.size(), 8u);
    for (const auto &[key, s] : configs)
        expectPrunedSearchIsExact(
            runtime::ScenarioRegistry::instance().makeCost(s), key);
}

/** The cost of the demo grid's mixtral-7b/testbedB/b2 configuration. */
ModelCost
mixtralTestbedBCost()
{
    const std::vector<runtime::Scenario> grid = runtime::demoGrid();
    const auto it = std::find_if(
        grid.begin(), grid.end(), [](const runtime::Scenario &s) {
            return s.model == "mixtral-7b" && s.cluster == "testbedB" &&
                   s.batch == 2;
        });
    FSMOE_ASSERT(it != grid.end(), "demo grid lost mixtral-7b/testbedB/b2");
    return runtime::ScenarioRegistry::instance().makeCost(*it);
}

TEST(DegreeSearch, PruningSkipsCandidatesEvenInTheWorstDemoConfig)
{
    // mixtral-7b/testbedB/b2 Tutel picks r = 2 and has the fewest
    // candidates the release-date bound skips of any demo
    // configuration.
    const ModelCost cost = mixtralTestbedBCost();
    const auto value = [](const char *name) {
        return stats::counter(name).value();
    };
    const uint64_t candidates = value("schedule.search.candidates");
    const uint64_t bounded = value("schedule.search.bounded");
    const uint64_t simulated = value("schedule.search.simulated");
    const uint64_t cut = value("schedule.search.cut");
    const uint64_t runs = value("sim.runs");
    const uint64_t runs_cut = value("sim.runs.cut");
    (void)Schedule::create("tutel")->build(cost);
    const uint64_t d_candidates =
        value("schedule.search.candidates") - candidates;
    const uint64_t d_bounded = value("schedule.search.bounded") - bounded;
    const uint64_t d_simulated =
        value("schedule.search.simulated") - simulated;
    EXPECT_EQ(d_candidates, static_cast<uint64_t>(cost.rMax));
    EXPECT_EQ(d_bounded + d_simulated, d_candidates);
    EXPECT_GT(d_bounded, 0u);
    // Only the simulated candidates run the simulator. r = 2 has the
    // least bound, so it runs first and sets the best; every other
    // simulated candidate loses and is cut short.
    EXPECT_EQ(value("sim.runs") - runs, d_simulated);
    EXPECT_EQ(value("sim.runs.cut") - runs_cut,
              value("schedule.search.cut") - cut);
    EXPECT_EQ(value("schedule.search.cut") - cut, d_simulated - 1);
}

TEST(DegreeSearch, TheReturnedWinnerIsTheFixedDegreeGraph)
{
    // A degree-0 build hands back the graph the search simulated; it
    // must be the graph a fixed-degree build at the winning r emits.
    std::map<std::string, runtime::Scenario> configs;
    for (const runtime::Scenario &s : runtime::demoGrid())
        configs.emplace(s.costKey(), s);
    ASSERT_EQ(configs.size(), 8u);
    for (const auto &[key, s] : configs) {
        const ModelCost cost =
            runtime::ScenarioRegistry::instance().makeCost(s);
        for (const std::string &name : degreeSearchingSchedules()) {
            const std::string where = key + " " + name;
            const auto sched = Schedule::create(name);
            const detail::DegreeChoice choice =
                detail::searchDegree(asDegreeSchedule(*sched), cost);
            const sim::TaskGraph winner =
                Schedule::create(withDegree(name, choice.r))->build(cost);
            expectSameGraph(choice.graph, winner, where + " (search)");
            const sim::TaskGraph built = Schedule::create(name)->build(cost);
            expectSameGraph(built, winner, where + " (build)");
            const double makespan = sim::Simulator{}.run(built).makespan;
            EXPECT_TRUE(test::sameBits(
                makespan, sim::Simulator{}.run(winner).makespan))
                << where;
            EXPECT_TRUE(test::sameBits(makespan, choice.makespanMs)) << where;
        }
    }
}

TEST(DegreeSearch, AnInfiniteMakespanKeepsTheDegreeOneGraph)
{
    // Infinite AllReduce durations make every candidate's link-sum
    // bound +inf, so none is simulated and none wins.
    ModelCost cost = smallModel(sim::testbedB(), 2);
    cost.models.allreduce.alpha = std::numeric_limits<double>::infinity();
    for (const std::string &name : degreeSearchingSchedules()) {
        const sim::TaskGraph built = Schedule::create(name)->build(cost);
        EXPECT_FALSE(built.empty()) << name;
        expectSameGraph(built,
                        Schedule::create(withDegree(name, 1))->build(cost),
                        name);
    }
}

TEST(DegreeSearchDeathTest, RejectsAModelWithoutCandidateDegrees)
{
    ModelCost cost = smallModel(sim::testbedB(), 1);
    cost.rMax = 0;
    EXPECT_DEATH(
        detail::searchDegree(asDegreeSchedule(*Schedule::create("tutel")),
                             cost),
        "rMax must be at least 1");
}

// ------------------------------------------------ builder graph structure

/**
 * Digest of a graph's structure: each task's op, link, stream,
 * priority and duration bits, then its dependency list in pool order.
 */
uint64_t
graphFingerprint(const sim::TaskGraph &g)
{
    audit::Fingerprint fp;
    fp.mix(static_cast<uint64_t>(g.size()));
    for (const sim::Task &t : g.tasks()) {
        const sim::DepSpan deps = g.deps(t.id);
        fp.mix(static_cast<int>(t.op))
            .mix(static_cast<int>(t.link))
            .mix(t.stream)
            .mix(t.priority)
            .mix(t.duration)
            .mix(static_cast<uint64_t>(deps.size()));
        for (sim::TaskId d : deps)
            fp.mix(d);
    }
    return fp.digest();
}

/**
 * graphFingerprint of every builtin schedule's graph on
 * mixtral-7b/testbedB/b2, at each fixed degree 1..rMax when it takes
 * one, by spec. Recorded from the vector-based phase emitter; FSMoE
 * and FSMoE-No-IIO re-recorded when step 2 became exact, and DS-MoE
 * when Tutel's degree-1 builder took it over (only its streams moved).
 */
const std::map<std::string, uint64_t> &
pinnedGraphDigests()
{
    static const std::map<std::string, uint64_t> kWant = {
        {"DS-MoE", 0x6c5c72a0e2bc1bbfull},
        {"FSMoE", 0x67fedcf19eba6273ull},
        {"FSMoE-No-IIO", 0x8378951a9ced997full},
        {"PipeMoE+Lina?degree=1", 0xc1d3b4c500108dceull},
        {"PipeMoE+Lina?degree=10", 0xe11bfa3bb889c6a2ull},
        {"PipeMoE+Lina?degree=11", 0x6b3f61838623bdf8ull},
        {"PipeMoE+Lina?degree=12", 0xd2603b4171f30506ull},
        {"PipeMoE+Lina?degree=13", 0xdf20d20806143dabull},
        {"PipeMoE+Lina?degree=14", 0xeb7b19b0c43783e3ull},
        {"PipeMoE+Lina?degree=15", 0x345198aa3ac8e991ull},
        {"PipeMoE+Lina?degree=16", 0x5d62acf3f17e3f88ull},
        {"PipeMoE+Lina?degree=2", 0x47a38e0617556162ull},
        {"PipeMoE+Lina?degree=3", 0x35b49f2cfc12e69dull},
        {"PipeMoE+Lina?degree=4", 0x8ff89a487c5d199bull},
        {"PipeMoE+Lina?degree=5", 0xcfb46fbf16faf95ull},
        {"PipeMoE+Lina?degree=6", 0x910f5b1d08300cbbull},
        {"PipeMoE+Lina?degree=7", 0xe2565af6347341c0ull},
        {"PipeMoE+Lina?degree=8", 0x7bb7fdd6516888e0ull},
        {"PipeMoE+Lina?degree=9", 0xf4f6837860f258b0ull},
        {"Tutel-Improved?degree=1", 0xcabc9c01c4bc6460ull},
        {"Tutel-Improved?degree=10", 0xa23be48efdd981f2ull},
        {"Tutel-Improved?degree=11", 0xbcc01eb4b909f7efull},
        {"Tutel-Improved?degree=12", 0xaaec73e6eaefad42ull},
        {"Tutel-Improved?degree=13", 0x514f764db20d1869ull},
        {"Tutel-Improved?degree=14", 0xdc164515f7b756beull},
        {"Tutel-Improved?degree=15", 0x1044174bc0e6f2a6ull},
        {"Tutel-Improved?degree=16", 0x3e85084e6771689bull},
        {"Tutel-Improved?degree=2", 0x8877fbc850cc34f1ull},
        {"Tutel-Improved?degree=3", 0xa7d0fe07ce6b8005ull},
        {"Tutel-Improved?degree=4", 0x509a9dd78d6cabe0ull},
        {"Tutel-Improved?degree=5", 0x88e74263a70ab873ull},
        {"Tutel-Improved?degree=6", 0x93714d577bde0265ull},
        {"Tutel-Improved?degree=7", 0xe7aefe52e07fba14ull},
        {"Tutel-Improved?degree=8", 0xf04b4fc6d0c916b5ull},
        {"Tutel-Improved?degree=9", 0x585e7807dcd4cfd6ull},
        {"Tutel?degree=1", 0x1e804d82d22a3307ull},
        {"Tutel?degree=10", 0xb125951e6c9da74aull},
        {"Tutel?degree=11", 0x236c167bffdb65bbull},
        {"Tutel?degree=12", 0xd7d091a218bd781bull},
        {"Tutel?degree=13", 0xd2505807149bf753ull},
        {"Tutel?degree=14", 0xd5cdf9a862a043a9ull},
        {"Tutel?degree=15", 0xffead4e9faa39d03ull},
        {"Tutel?degree=16", 0x77100aeba748a917ull},
        {"Tutel?degree=2", 0x186d26955e3ab616ull},
        {"Tutel?degree=3", 0xf12c9148368576efull},
        {"Tutel?degree=4", 0x92da97f00c8210f5ull},
        {"Tutel?degree=5", 0x81c01abac5a72f6full},
        {"Tutel?degree=6", 0xe56c2883646a589eull},
        {"Tutel?degree=7", 0xf6627a71d9454cffull},
        {"Tutel?degree=8", 0x80824f86da9f10e2ull},
        {"Tutel?degree=9", 0xe6e68bb4757526efull},
    };
    return kWant;
}

TEST(Schedules, BuiltinGraphsKeepTheirStructure)
{
    // A change here means a builder now emits a different graph
    // (tasks, durations or dependency order), which the byte baselines
    // may not catch.
    const ModelCost cost = mixtralTestbedBCost();
    std::map<std::string, uint64_t> got;
    for (const ScheduleInfo &info : ScheduleRegistry::instance().list()) {
        const bool has_degree = std::any_of(
            info.params.begin(), info.params.end(),
            [](const ScheduleParamInfo &p) { return p.key == "degree"; });
        if (!has_degree) {
            got[info.name] =
                graphFingerprint(Schedule::create(info.name)->build(cost));
            continue;
        }
        for (int r = 1; r <= cost.rMax; ++r) {
            const std::string spec = withDegree(info.name, r);
            got[spec] = graphFingerprint(Schedule::create(spec)->build(cost));
        }
    }
    std::ostringstream table;
    for (const auto &[spec, digest] : got)
        table << "        {\"" << spec << "\", 0x" << std::hex << digest
              << std::dec << "ull},\n";
    EXPECT_EQ(got, pinnedGraphDigests()) << "current digests:\n"
                                         << table.str();
}

// ------------------------------------- cutoff-bounded makespans

/** The demo grid's eight configurations by cost key. */
std::map<std::string, runtime::Scenario>
demoConfigs()
{
    std::map<std::string, runtime::Scenario> configs;
    for (const runtime::Scenario &s : runtime::demoGrid())
        configs.emplace(s.costKey(), s);
    return configs;
}

/** The tuner's demo query (fsmoe_tune's defaults) as a scenario. */
runtime::Scenario
tunerQuery()
{
    runtime::Scenario s;
    s.model = "gpt2xl-moe";
    s.cluster = "testbedA";
    s.batch = 1;
    s.seqLen = 1024;
    return s;
}

/**
 * Every builtin schedule at its defaults; each degree-taking one also
 * at degree 0, 1 and rMax; and Lina at chunkMB 30 and 1024 (plus the
 * tuner's clamp bound 1/1024 with @p tiny_chunks) at each of those
 * degrees.
 */
std::vector<std::string>
cutoffSpecs(int r_max, bool tiny_chunks)
{
    std::vector<std::string> specs = ScheduleRegistry::instance().names();
    const std::vector<int> degrees = {0, 1, r_max};
    for (const std::string &name : degreeSearchingSchedules())
        for (int r : degrees)
            specs.push_back(withDegree(name, r));
    std::vector<std::string> chunks = {"30", "1024"};
    if (tiny_chunks)
        chunks.push_back("0.0009765625");
    for (const std::string &mb : chunks)
        for (int r : degrees)
            specs.push_back("PipeMoE+Lina?chunkMB=" + mb +
                            "&degree=" + std::to_string(r));
    return specs;
}

/**
 * Schedule::makespanBelow against run(build()).makespan = m at the
 * cutoffs +inf, m, m's two neighbours and m/2: m's bits when
 * m < cutoff, else +inf.
 */
void
expectMakespanBelowContract(const ModelCost &cost, const std::string &spec,
                            const std::string &where)
{
    const auto sched = Schedule::create(spec);
    const double m = sim::Simulator{}.run(sched->build(cost)).makespan;
    const double inf = std::numeric_limits<double>::infinity();
    for (const double cutoff : {inf, m, std::nextafter(m, inf),
                                std::nextafter(m, -inf), m / 2}) {
        const double got = sched->makespanBelow(cost, cutoff);
        if (m < cutoff)
            EXPECT_TRUE(test::sameBits(got, m))
                << where << " " << spec << " cutoff " << cutoff << ": "
                << got << " vs " << m;
        else
            EXPECT_EQ(got, inf)
                << where << " " << spec << " cutoff " << cutoff;
    }
}

TEST(Schedules, MakespanBelowIsRunsMakespanUnderTheCutoff)
{
    // The demo grid holds the tuner's query; only there are 1 KB
    // buckets affordable (on mixtral-7b they emit 2.1M tasks).
    const std::string tuner_key = tunerQuery().costKey();
    std::map<std::string, runtime::Scenario> configs = demoConfigs();
    ASSERT_EQ(configs.size(), 8u);
    ASSERT_EQ(configs.count(tuner_key), 1u);
    for (const auto &[key, s] : configs) {
        const ModelCost cost =
            runtime::ScenarioRegistry::instance().makeCost(s);
        for (const std::string &spec :
             cutoffSpecs(cost.rMax, key == tuner_key))
            expectMakespanBelowContract(cost, spec, key);
    }
}

/** Bitwise equality of two results: makespan, trace, opTime, links. */
void
expectSameResult(const sim::SimResult &got, const sim::SimResult &want,
                 const std::string &what)
{
    EXPECT_TRUE(test::sameBits(got.makespan, want.makespan)) << what;
    ASSERT_EQ(got.trace.size(), want.trace.size()) << what;
    for (size_t i = 0; i < want.trace.size(); ++i) {
        const sim::TaskTrace &a = got.trace[i];
        const sim::TaskTrace &b = want.trace[i];
        ASSERT_TRUE(a.id == b.id && test::sameBits(a.start, b.start) &&
                    test::sameBits(a.finish, b.finish))
            << what << ": task " << i;
    }
    for (size_t op = 0; op < want.opTime.size(); ++op)
        EXPECT_TRUE(test::sameBits(got.opTime[op], want.opTime[op]))
            << what << ": op " << op;
    for (size_t li = 0; li < want.linkBusyMs.size(); ++li)
        EXPECT_TRUE(test::sameBits(got.linkBusyMs[li], want.linkBusyMs[li]))
            << what << ": link " << li;
}

TEST(Schedules, SimulateIsRunOfBuildSimulatingOnce)
{
    // Schedule::simulate hands back a degree search's winner instead of
    // simulating its graph again; it must still be run(build()) bit for
    // bit, with build()'s graph, for every builtin schedule, and for
    // Tutel, Tutel-Improved and Lina at degree 0 and every fixed
    // degree, on all eight demo configurations. On
    // mixtral-7b/testbedB/b2 the graphs must also keep their pinned
    // digests.
    const std::string pinned_key = [] {
        runtime::Scenario s;
        s.model = "mixtral-7b";
        s.cluster = "testbedB";
        s.batch = 2;
        s.seqLen = 256;
        return s.costKey();
    }();
    const std::map<std::string, runtime::Scenario> configs = demoConfigs();
    ASSERT_EQ(configs.size(), 8u);
    ASSERT_EQ(configs.count(pinned_key), 1u);
    const std::vector<std::string> searching = degreeSearchingSchedules();
    stats::Counter &runs = stats::counter("sim.runs");
    stats::Counter &simulated = stats::counter("schedule.search.simulated");
    for (const auto &[key, s] : configs) {
        const ModelCost cost =
            runtime::ScenarioRegistry::instance().makeCost(s);
        std::vector<std::string> specs = ScheduleRegistry::instance().names();
        for (const std::string &name : searching)
            for (int r = 0; r <= cost.rMax; ++r)
                specs.push_back(withDegree(name, r));
        for (const std::string &spec : specs) {
            const std::string where = key + " " + spec;
            const auto sched = Schedule::create(spec);
            const sim::TaskGraph built = sched->build(cost);
            const sim::SimResult want = sim::Simulator{}.run(built);
            sim::TaskGraph g;
            const uint64_t runs0 = runs.value();
            const uint64_t simulated0 = simulated.value();
            const sim::SimResult got = sched->simulate(cost, &g);
            const uint64_t d_runs = runs.value() - runs0;
            const uint64_t d_simulated = simulated.value() - simulated0;
            expectSameResult(got, want, where);
            const uint64_t digest = graphFingerprint(g);
            EXPECT_EQ(digest, graphFingerprint(built)) << where;
            if (key == pinned_key) {
                const auto pinned = pinnedGraphDigests().find(spec);
                if (pinned != pinnedGraphDigests().end()) {
                    EXPECT_EQ(digest, pinned->second) << where;
                }
            }
            // A search simulates its candidates and nothing after
            // them; any other build is simulated once.
            const bool searched =
                std::count(searching.begin(), searching.end(), spec) > 0 ||
                spec.find("?degree=0") != std::string::npos;
            EXPECT_EQ(d_runs, searched ? d_simulated : 1u) << where;
            EXPECT_EQ(d_simulated > 0, searched) << where;
        }
    }
}

TEST(DegreeSearch, ACutoffAboveTheMinimumKeepsTheUnseededChoice)
{
    const double inf = std::numeric_limits<double>::infinity();
    for (const auto &[key, s] : demoConfigs()) {
        const ModelCost cost =
            runtime::ScenarioRegistry::instance().makeCost(s);
        for (const std::string &name : degreeSearchingSchedules()) {
            const std::string where = key + " " + name;
            const auto sched = Schedule::create(name);
            const detail::DegreeSchedule &ds = asDegreeSchedule(*sched);
            const detail::DegreeChoice want = detail::searchDegree(ds, cost);
            const uint64_t want_digest = graphFingerprint(want.graph);
            for (const double cutoff :
                 {std::nextafter(want.makespanMs, inf),
                  2 * want.makespanMs}) {
                const detail::DegreeChoice got =
                    detail::searchDegree(ds, cost, cutoff);
                EXPECT_EQ(got.r, want.r) << where;
                EXPECT_TRUE(test::sameBits(got.makespanMs, want.makespanMs))
                    << where << ": " << got.makespanMs << " vs "
                    << want.makespanMs;
                EXPECT_EQ(graphFingerprint(got.graph), want_digest)
                    << where;
            }
        }
    }
}

/** The release-date bound of @p ds's own tally at degree @p r. */
double
ownTallyBound(const detail::DegreeSchedule &ds, const ModelCost &cost, int r)
{
    sim::DurationTally tally;
    ds.emit(tally, cost, r);
    return sim::Simulator::makespanLowerBound(tally);
}

TEST(DegreeSearch, ACutoffAtEveryBoundSimulatesNothing)
{
    const ModelCost cost =
        runtime::ScenarioRegistry::instance().makeCost(tunerQuery());
    const double inf = std::numeric_limits<double>::infinity();
    stats::Counter &simulated = stats::counter("schedule.search.simulated");
    stats::Counter &runs = stats::counter("sim.runs");
    for (const std::string name :
         {"Tutel", "PipeMoE+Lina", "PipeMoE+Lina?chunkMB=0.0009765625"}) {
        const auto spec_at = [&](int r) {
            return name + (name.find('?') == std::string::npos ? "?" : "&") +
                   "degree=" + std::to_string(r);
        };
        // The least bound the schedule's own tallies compute: their
        // sums group equal tasks, so their bits are not a replayed
        // graph's.
        const auto sched = Schedule::create(name);
        const detail::DegreeSchedule &ds = asDegreeSchedule(*sched);
        double min_bound = inf;
        for (int r = 1; r <= cost.rMax; ++r)
            min_bound = std::min(min_bound, ownTallyBound(ds, cost, r));
        const uint64_t simulated0 = simulated.value();
        const detail::DegreeChoice got =
            detail::searchDegree(ds, cost, min_bound);
        EXPECT_EQ(simulated.value(), simulated0) << name;
        EXPECT_EQ(got.makespanMs, inf) << name;
        EXPECT_TRUE(got.graph.empty()) << name;

        // The schedule's own probes at that cutoff stop at their
        // bounds too, searching and at every fixed degree.
        const uint64_t runs0 = runs.value();
        EXPECT_EQ(sched->makespanBelow(cost, min_bound), inf) << name;
        for (int r = 1; r <= cost.rMax; ++r)
            EXPECT_EQ(Schedule::create(spec_at(r))
                          ->makespanBelow(cost, min_bound),
                      inf)
                << spec_at(r);
        EXPECT_EQ(runs.value(), runs0) << name;
    }
}

TEST(DegreeSearchDeathTest, RejectsANanCutoff)
{
    const ModelCost cost = smallModel(sim::testbedB(), 1);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(
        detail::searchDegree(asDegreeSchedule(*Schedule::create("tutel")),
                             cost, nan),
        "makespan cutoff is NaN");
    for (const char *spec : {"fsmoe", "tutel", "lina?degree=2"})
        EXPECT_DEATH(Schedule::create(spec)->makespanBelow(cost, nan),
                     "makespan cutoff is NaN")
            << spec;
}

// ------------------------------------------------ O(1) tallies and bounds

TEST(PhaseTally, MatchesThePerTaskPhaseOnRandomLayers)
{
    // Layers of random models (a third with zero startup), chained in
    // both phases at random degrees, options and AllReduce placements:
    // appendMoePhase into a tally against the built graph replayed into
    // one, task by task.
    constexpr int kSeeds = 48;
    for (int seed = 0; seed < kSeeds; ++seed) {
        std::mt19937 rng(0x7a11u + static_cast<unsigned>(seed));
        const ModelCost cost = randomModel(rng, seed % 3 == 0);
        std::uniform_int_distribution<int> coin(0, 1);
        std::uniform_int_distribution<int> degree(1, 64);
        std::uniform_real_distribution<double> gar(0.0, 10.0);
        sim::DurationTally tally;
        sim::TaskGraph built;
        sim::TaskId last = -1;
        for (const LayerCost &lc : cost.layers) {
            for (const Phase phase : {Phase::Forward, Phase::Backward}) {
                detail::PipelineBuildOptions opts;
                opts.mergeCommLinks = coin(rng) == 1;
                // An unused draw, so every seed keeps its later draws.
                (void)coin(rng);
                const int r = degree(rng);
                const double gar_ms = coin(rng) ? gar(rng) : 0.0;
                const sim::TaskId dep = coin(rng) ? last : -1;
                sim::TaskId tally_gar = -2;
                sim::TaskId built_gar = -2;
                const sim::TaskId id = detail::appendMoePhase(
                    tally, lc, cost.models, phase, r, opts, dep, gar_ms,
                    &tally_gar);
                last = detail::appendMoePhase(built, lc, cost.models, phase,
                                              r, opts, dep, gar_ms,
                                              &built_gar);
                const std::string where = "seed " + std::to_string(seed) +
                                          " r " + std::to_string(r);
                ASSERT_EQ(id, last) << where;
                ASSERT_EQ(tally_gar, built_gar) << where;
                ASSERT_EQ(tally.size(), built.size()) << where;
                ASSERT_EQ(tally.lane(0).numStreams(), built.numStreams())
                    << where;
            }
        }
        sim::DurationTally replayed;
        test::replayGraph(built, replayed);
        ASSERT_EQ(replayed.size(), tally.size());
        const double tol =
            4.0 * (static_cast<double>(tally.size()) + 1.0) * 0x1p-53;
        for (size_t li = 0; li < static_cast<size_t>(sim::Link::NumLinks);
             ++li) {
            const sim::Link link = static_cast<sim::Link>(li);
            const double want = replayed.lane(0).linkDurationSum(link);
            EXPECT_LE(std::fabs(tally.lane(0).linkDurationSum(link) - want),
                      tol * want)
                << "seed " << seed << " " << sim::linkName(link);
        }
    }
}

/**
 * A degree schedule whose graph is one forward MoE phase of the model's
 * first layer after task @p dep, which an empty graph does not have
 * unless it is -1.
 */
class OnePhaseSchedule : public detail::DegreeSchedule
{
  public:
    explicit OnePhaseSchedule(sim::TaskId dep) : DegreeSchedule(0), dep_(dep)
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
    void emitInto(Sink &sink, const ModelCost &model, int r) const
    {
        detail::appendMoePhase(sink, model.layers[0], model.models,
                               Phase::Forward, r, {}, dep_);
    }

    sim::TaskId dep_;
};

TEST(PhaseTallyDeathTest, AnInvalidPhaseKeepsAddTasksMessages)
{
    // Appended to a tally, a phase that TaskGraph::addTask rejects at
    // every degree rejects every lane; a bound or search over it emits
    // the least degree into a TaskGraph, which fails with addTask's
    // message.
    ModelCost cost = smallModel(sim::testbedB(), 1);
    const auto every_lane_rejected = [&](sim::TaskId dep) {
        sim::DurationTally tally(4);
        detail::appendMoePhase(tally, cost.layers[0], cost.models,
                               Phase::Forward, 4, {}, dep);
        for (size_t i = 0; i < tally.numLanes(); ++i)
            if (!tally.lane(i).rejected())
                return false;
        return true;
    };
    EXPECT_FALSE(every_lane_rejected(-1));
    EXPECT_TRUE(every_lane_rejected(7));
    const std::string unknown = "task 'routing' depends on unknown task 7";
    EXPECT_DEATH(OnePhaseSchedule(7).makespanLowerBound(cost), unknown);
    EXPECT_DEATH(detail::searchDegree(OnePhaseSchedule(7), cost), unknown);

    cost.layers[0].fwd.order = -1.0;
    EXPECT_TRUE(every_lane_rejected(-1));
    const std::string negative = "task 'order' has negative duration";
    EXPECT_DEATH(OnePhaseSchedule(-1).makespanLowerBound(cost), negative);
    EXPECT_DEATH(detail::searchDegree(OnePhaseSchedule(-1), cost), negative);
    for (const std::string &name : degreeSearchingSchedules())
        EXPECT_DEATH(Schedule::create(name)->makespanLowerBound(cost),
                     negative)
            << name;
}

/**
 * The spec prefixes the bound tests append "degree=r" to, r = 1..16,
 * on @p key's cost: each degree-taking schedule (only Lina with
 * @p lina_only), Lina at chunkMB 30 and 1024, and at 1/1024 on the
 * tuner query, the only configuration where 1 KB buckets are
 * affordable.
 */
std::vector<std::string>
boundSpecPrefixes(const std::string &key, bool lina_only)
{
    std::vector<std::string> prefixes;
    if (!lina_only)
        for (const std::string &name : degreeSearchingSchedules())
            if (name != "PipeMoE+Lina")
                prefixes.push_back(name + "?");
    std::vector<std::string> chunks = {"30", "1024"};
    if (key == tunerQuery().costKey())
        chunks.push_back("0.0009765625");
    for (const std::string &mb : chunks)
        prefixes.push_back("PipeMoE+Lina?chunkMB=" + mb + "&");
    return prefixes;
}

TEST(Schedules, EveryOwnTallyBoundIsBelowTheMakespan)
{
    const std::map<std::string, runtime::Scenario> configs = demoConfigs();
    ASSERT_EQ(configs.count(tunerQuery().costKey()), 1u);
    for (const auto &[key, s] : configs) {
        const ModelCost cost =
            runtime::ScenarioRegistry::instance().makeCost(s);
        // The schedules without a degree build their one graph.
        for (const std::string &name : ScheduleRegistry::instance().names()) {
            const auto sched = Schedule::create(name);
            if (dynamic_cast<const detail::DegreeSchedule *>(sched.get()))
                continue;
            const sim::TaskGraph g = sched->build(cost);
            sim::DurationTally tally;
            test::replayGraph(g, tally);
            EXPECT_LE(sim::Simulator::makespanLowerBound(tally),
                      sim::Simulator{}.run(g).makespan)
                << key << " " << name;
        }
        for (const std::string &prefix : boundSpecPrefixes(key, false)) {
            for (int r = 1; r <= 16; ++r) {
                const std::string spec = prefix + "degree=" + std::to_string(r);
                const auto sched = Schedule::create(spec);
                EXPECT_LE(ownTallyBound(asDegreeSchedule(*sched), cost, r),
                          sim::Simulator{}.run(sched->build(cost)).makespan)
                    << key << " " << spec;
            }
        }
    }
}

TEST(Schedules, LinasDegreeFreeBoundIsBelowTheMakespanAtEveryDegree)
{
    for (const auto &[key, s] : demoConfigs()) {
        const ModelCost cost =
            runtime::ScenarioRegistry::instance().makeCost(s);
        for (const std::string &prefix : boundSpecPrefixes(key, true)) {
            const double bound =
                asDegreeSchedule(*Schedule::create(prefix + "degree=0"))
                    .degreeFreeBound(cost);
            EXPECT_GT(bound, 0.0) << key << " " << prefix;
            for (int r = 1; r <= 16; ++r) {
                const std::string spec = prefix + "degree=" + std::to_string(r);
                EXPECT_LE(bound, sim::Simulator{}
                                     .run(Schedule::create(spec)->build(cost))
                                     .makespan)
                    << key << " " << spec;
            }
        }
    }
    // Tutel's default bound never cuts.
    const ModelCost cost =
        runtime::ScenarioRegistry::instance().makeCost(tunerQuery());
    EXPECT_EQ(asDegreeSchedule(*Schedule::create("tutel"))
                  .degreeFreeBound(cost),
              0.0);
}

/**
 * Schedule::makespanLowerBound on @p cost against run(build()): at most
 * the makespan for every builtin schedule, and 0 for one that is no
 * degree schedule (the two FSMoEs); and for each of @p prefixes
 * followed by "degree=r", r in 0..rMax, where the degree-0 bound is the
 * least of the others, since the search picks one of their graphs.
 * Where the graph is one chain, the bound must also reach the
 * makespan.
 */
void
expectLowerBoundsHold(const ModelCost &cost,
                      const std::vector<std::string> &prefixes,
                      const std::string &where)
{
    const auto makespan = [&](const Schedule &sched) {
        return sim::Simulator{}.run(sched.build(cost)).makespan;
    };
    for (const std::string &name : ScheduleRegistry::instance().names()) {
        const auto sched = Schedule::create(name);
        const double bound = sched->makespanLowerBound(cost);
        if (!dynamic_cast<const detail::DegreeSchedule *>(sched.get())) {
            EXPECT_EQ(bound, 0.0) << where << " " << name;
        }
        EXPECT_LE(bound, makespan(*sched)) << where << " " << name;
    }
    // Tutel at r = 1 runs every task one after another, and so does
    // DS-MoE, which is Tutel at r = 1 priced differently: the compute
    // chain is the whole graph and the bound is the makespan up to
    // rounding.
    for (const char *spec : {"Tutel?degree=1", "DS-MoE"}) {
        const auto chain = Schedule::create(spec);
        const double bound = chain->makespanLowerBound(cost);
        const double m = makespan(*chain);
        if (m > 0.0) {
            EXPECT_GT(bound, 0.0) << where << " " << spec;
        }
        EXPECT_GE(bound, m * (1.0 - 1e-9)) << where << " " << spec;
    }
    for (const std::string &prefix : prefixes) {
        double least = std::numeric_limits<double>::infinity();
        for (int r = 0; r <= cost.rMax; ++r) {
            const std::string spec = prefix + "degree=" + std::to_string(r);
            const auto sched = Schedule::create(spec);
            const double bound = sched->makespanLowerBound(cost);
            const double m = makespan(*sched);
            EXPECT_LE(bound, m) << where << " " << spec;
            if (r == 0)
                continue;
            if (m > 0.0) {
                EXPECT_GT(bound, 0.0) << where << " " << spec;
            }
            least = std::min(least, bound);
        }
        EXPECT_EQ(Schedule::create(prefix + "degree=0")
                      ->makespanLowerBound(cost),
                  least)
            << where << " " << prefix;
    }
}

TEST(Schedules, DsMoeWithoutItsOverheadsIsTutelAtDegreeOne)
{
    // DS-MoE has no modelled mechanism of its own, only two price
    // factors: with both at 1 it builds Tutel's degree-1 graph, streams
    // included, and runs it to the same makespan bits. A term of its
    // own would change this on purpose.
    const std::map<std::string, runtime::Scenario> configs = demoConfigs();
    ASSERT_EQ(configs.size(), 8u);
    for (const auto &[key, s] : configs) {
        const ModelCost cost =
            runtime::ScenarioRegistry::instance().makeCost(s);
        const sim::TaskGraph ds =
            Schedule::create("DS-MoE?a2aOverhead=1&kernelOverhead=1")
                ->build(cost);
        const sim::TaskGraph tutel =
            Schedule::create("Tutel?degree=1")->build(cost);
        EXPECT_EQ(graphFingerprint(ds), graphFingerprint(tutel)) << key;
        EXPECT_TRUE(test::sameBits(sim::Simulator{}.run(ds).makespan,
                                   sim::Simulator{}.run(tutel).makespan))
            << key;
    }
}

/**
 * A seeded random model for the bound tests: 1-6 layers of small random
 * shapes (so 1 KB Lina buckets stay affordable), a random rMax, and
 * each fitted alpha and beta zeroed a quarter of the time, which gives
 * zero durations, or else scaled by 2^k, k uniform in [-12, 12], so
 * that durations span many binades and sums grouped differently round
 * apart.
 */
ModelCost
boundTestModel(std::mt19937 &rng)
{
    std::uniform_int_distribution<int> coin(0, 1);
    std::uniform_int_distribution<int> quarter(0, 3);
    std::uniform_real_distribution<double> exponent(-12.0, 12.0);
    const sim::ClusterSpec cluster =
        coin(rng) ? sim::testbedA() : sim::testbedB();
    ModelCost cost;
    cost.models = PerfModelSet::fromCluster(cluster);
    const auto scaled = [&](double v) {
        return quarter(rng) == 0 ? 0.0 : v * std::exp2(exponent(rng));
    };
    for (LinearModel *m :
         {&cost.models.alltoall, &cost.models.allgather,
          &cost.models.reducescatter, &cost.models.allreduce,
          &cost.models.gemm}) {
        m->alpha = scaled(m->alpha);
        m->beta = scaled(m->beta);
    }
    const ParallelConfig par = model::paperParallelism(cluster);
    const int layers = std::uniform_int_distribution<int>(1, 6)(rng);
    for (int i = 0; i < layers; ++i) {
        LayerShape shape;
        shape.batch = 1 << std::uniform_int_distribution<int>(0, 2)(rng);
        shape.seqLen = 128 << std::uniform_int_distribution<int>(0, 2)(rng);
        shape.embed = 256 << std::uniform_int_distribution<int>(0, 2)(rng);
        shape.hidden =
            shape.embed * std::uniform_int_distribution<int>(2, 4)(rng);
        shape.numExperts = cluster.numNodes;
        cost.layers.push_back(makeLayerCost(cost.models, shape, par));
    }
    cost.rMax = std::uniform_int_distribution<int>(1, 16)(rng);
    return cost;
}

TEST(Schedules, MakespanLowerBoundIsBelowTheMakespan)
{
    // Every demo configuration (the tuner's query among them) and the
    // tuner's query at rMax 4, where the degree-0 bound is a minimum
    // over fewer degrees.
    std::map<std::string, runtime::Scenario> configs = demoConfigs();
    runtime::Scenario small_r = tunerQuery();
    small_r.rMax = 4;
    configs.emplace(small_r.costKey(), small_r);
    ASSERT_EQ(configs.count(tunerQuery().costKey()), 1u);
    ASSERT_EQ(configs.size(), 9u);
    for (const auto &[key, s] : configs)
        expectLowerBoundsHold(
            runtime::ScenarioRegistry::instance().makeCost(s),
            boundSpecPrefixes(key, false), key);

    // Seeded random models: every degree schedule at every degree, Lina
    // at 1 KB, 30 MB and 1 GB buckets.
    const std::vector<std::string> prefixes = {
        "Tutel?", "Tutel-Improved?", "PipeMoE+Lina?chunkMB=0.0009765625&",
        "PipeMoE+Lina?chunkMB=30&", "PipeMoE+Lina?chunkMB=1024&"};
    constexpr int kSeeds = 40;
    for (int seed = 0; seed < kSeeds; ++seed) {
        std::mt19937 rng(0xb0u + static_cast<unsigned>(seed));
        expectLowerBoundsHold(boundTestModel(rng), prefixes,
                              "seed " + std::to_string(seed));
        if (::testing::Test::HasFailure())
            FAIL() << "first failure at seed " << seed;
    }
}

/**
 * @p spec's schedule on @p cost emitted once into a tally of rMax lanes
 * from degree 1, the degree search's walk, against a one-lane tally of
 * each degree: every lane's bound, release bound, size(), numStreams()
 * and link sums have that tally's bits.
 */
void
expectLanesAreOneLaneTallies(const ModelCost &cost, const std::string &spec,
                             const std::string &where)
{
    const auto sched = Schedule::create(spec);
    const detail::DegreeSchedule &ds = asDegreeSchedule(*sched);
    const size_t lanes = static_cast<size_t>(cost.rMax);
    sim::DurationTally walk(lanes);
    ds.emit(walk, cost, 1);
    ASSERT_EQ(walk.numLanes(), lanes) << where;
    for (size_t i = 0; i < lanes; ++i) {
        const int r = static_cast<int>(i) + 1;
        const std::string what = where + " " + spec + " r " + std::to_string(r);
        sim::DurationTally one;
        ds.emit(one, cost, r);
        const sim::DurationTally::Lane &lane = walk.lane(i);
        EXPECT_FALSE(lane.rejected()) << what;
        EXPECT_EQ(lane.size(), one.size()) << what;
        EXPECT_EQ(lane.numStreams(), one.lane(0).numStreams()) << what;
        for (size_t li = 0; li < static_cast<size_t>(sim::Link::NumLinks);
             ++li) {
            const sim::Link link = static_cast<sim::Link>(li);
            EXPECT_TRUE(test::sameBits(lane.linkDurationSum(link),
                                       one.lane(0).linkDurationSum(link)))
                << what << " " << sim::linkName(link);
        }
        EXPECT_TRUE(
            test::sameBits(lane.releaseBound(), one.lane(0).releaseBound()))
            << what;
        EXPECT_TRUE(test::sameBits(sim::Simulator::makespanLowerBound(walk, i),
                                   sim::Simulator::makespanLowerBound(one)))
            << what;
    }
}

TEST(DegreeTally, EveryLaneIsTheOneLaneTallyOfItsDegree)
{
    // Tutel, Tutel-Improved and Lina at 30 MB and 1 GB buckets, and on
    // gpt2xl-moe at 1 KB (on mixtral-7b 1 KB buckets run to millions
    // of tasks), on the nine demo and tuner configurations and on
    // seeded random models.
    std::map<std::string, runtime::Scenario> configs = demoConfigs();
    runtime::Scenario small_r = tunerQuery();
    small_r.rMax = 4;
    configs.emplace(small_r.costKey(), small_r);
    ASSERT_EQ(configs.size(), 9u);
    const auto specs = [](bool tiny_chunks) {
        std::vector<std::string> out;
        for (const std::string &name : degreeSearchingSchedules())
            if (name != "PipeMoE+Lina")
                out.push_back(name);
        std::vector<std::string> chunks = {"30", "1024"};
        if (tiny_chunks)
            chunks.push_back("0.0009765625");
        for (const std::string &mb : chunks)
            out.push_back("PipeMoE+Lina?chunkMB=" + mb);
        return out;
    };
    for (const auto &[key, s] : configs) {
        const ModelCost cost =
            runtime::ScenarioRegistry::instance().makeCost(s);
        for (const std::string &spec : specs(s.model == "gpt2xl-moe"))
            expectLanesAreOneLaneTallies(cost, spec, key);
    }
    constexpr int kSeeds = 24;
    for (int seed = 0; seed < kSeeds; ++seed) {
        std::mt19937 rng(0x1a7eu + static_cast<unsigned>(seed));
        const ModelCost cost = boundTestModel(rng);
        for (const std::string &spec : specs(true))
            expectLanesAreOneLaneTallies(cost, spec,
                                         "seed " + std::to_string(seed));
        if (::testing::Test::HasFailure())
            FAIL() << "first failure at seed " << seed;
    }
}

TEST(Schedules, DegreeBoundsKeepTheirBits)
{
    // Schedule::makespanLowerBound of Tutel, Tutel-Improved and Lina at
    // 30, 1024 and 0.5 MB buckets, at degrees 0..16, on the eight demo
    // configurations: 680 bounds in one digest, and in another every
    // count of each degree-0 walk's 16 lanes. The lane tests compare a
    // walk with one-lane tallies; this pins both against a change that
    // moves every lane alike, such as one that reorders a lane's sums
    // where the release bound hides them.
    const std::vector<std::string> prefixes = {
        "Tutel?", "Tutel-Improved?", "PipeMoE+Lina?chunkMB=30&",
        "PipeMoE+Lina?chunkMB=1024&", "PipeMoE+Lina?chunkMB=0.5&"};
    const std::map<std::string, runtime::Scenario> configs = demoConfigs();
    ASSERT_EQ(configs.size(), 8u);
    audit::Fingerprint bounds_fp;
    audit::Fingerprint lanes_fp;
    size_t bounds = 0;
    for (const auto &[key, s] : configs) {
        const ModelCost cost =
            runtime::ScenarioRegistry::instance().makeCost(s);
        ASSERT_EQ(cost.rMax, 16) << key;
        for (const std::string &prefix : prefixes) {
            for (int r = 0; r <= 16; ++r) {
                const std::string spec = prefix + "degree=" + std::to_string(r);
                const double bound =
                    Schedule::create(spec)->makespanLowerBound(cost);
                EXPECT_GT(bound, 0.0) << key << " " << spec;
                bounds_fp.mix(key).mix(spec).mix(bound);
                ++bounds;
            }
            const auto sched = Schedule::create(prefix + "degree=0");
            sim::DurationTally walk(16);
            asDegreeSchedule(*sched).emit(walk, cost, 1);
            for (size_t i = 0; i < 16; ++i) {
                const sim::DurationTally::Lane &lane = walk.lane(i);
                lanes_fp.mix(static_cast<uint64_t>(lane.size()))
                    .mix(lane.numStreams())
                    .mix(lane.releaseBound());
                for (size_t li = 0;
                     li < static_cast<size_t>(sim::Link::NumLinks); ++li)
                    lanes_fp.mix(
                        lane.linkDurationSum(static_cast<sim::Link>(li)));
            }
        }
    }
    ASSERT_EQ(bounds, 680u);
    EXPECT_EQ(bounds_fp.digest(), 0x8b2ba02d6f4646ceull)
        << std::hex << bounds_fp.digest();
    EXPECT_EQ(lanes_fp.digest(), 0xa53ed0e9bb8d29bdull)
        << std::hex << lanes_fp.digest();
}

TEST(DegreeTallyDeathTest, ALaneInvalidAtSomeDegreesRejectsTheLeastOne)
{
    // Two layers. Layer 0's AlltoAll chunk is negative from r = 11 on,
    // layer 1's expert chunk from r = 6 on: the walk meets degree 11's
    // fault first, in layer 0, but degree 6 is the least invalid one,
    // so the message is a one-degree tally's at r = 6 (layer 1's
    // forward experts), not r = 11's.
    ModelCost cost = smallModel(sim::testbedB(), 2);
    Workload &w0 = cost.layers[0].workload;
    Workload &w1 = cost.layers[1].workload;
    w1.a2aBytes = 100.0 * w0.a2aBytes;
    w0.expertMacs = 10.0 * w1.expertMacs;
    LinearModel &a2a = cost.models.alltoall;
    LinearModel &gemm = cost.models.gemm;
    a2a.alpha = -a2a.beta * w0.a2aBytes / 10.5;
    gemm.alpha = -gemm.beta * w1.expertMacs / (5.5 * w1.expertGemms);
    const auto chunks = [&](const Workload &w, int r) {
        return makeProblem(cost.models, w, Phase::Forward).exp.chunk(r);
    };
    ASSERT_GE(chunks(w1, 5), 0.0);
    ASSERT_LT(chunks(w1, 6), 0.0);
    ASSERT_GE(chunks(w0, 16), 0.0);
    ASSERT_GE(makeProblem(cost.models, w0, Phase::Forward).a2a.chunk(10),
              0.0);
    ASSERT_LT(makeProblem(cost.models, w0, Phase::Forward).a2a.chunk(11),
              0.0);
    const auto message = [](const char *label, double duration) {
        std::ostringstream os;
        os << "task '" << label << "' has negative duration " << duration;
        std::string escaped;
        for (const char c : os.str()) {
            if (c == '.')
                escaped += '\\';
            escaped += c;
        }
        return escaped;
    };
    const std::string at6 = message("e0", chunks(w1, 6));
    for (const std::string &name : degreeSearchingSchedules()) {
        const auto sched = Schedule::create(name);
        EXPECT_DEATH(sched->build(cost), at6) << name;
        EXPECT_DEATH(sched->makespanLowerBound(cost), at6) << name;
        // A fixed degree is a one-lane walk, rejected at its own fault.
        EXPECT_DEATH(
            Schedule::create(withDegree(name, 11))->makespanLowerBound(cost),
            message("d0", makeProblem(cost.models, w0, Phase::Forward)
                              .a2a.chunk(11)))
            << name;
    }
}

// ---------------------------------------------------- graph keys

/**
 * Lina at @p chunk_bytes and degree @p r as a spec, or "" when the
 * chunk lies outside chunkMB's declared range. %.17g round-trips, and
 * the factory's scaling by 2^20 is exact, so the schedule's chunk is
 * @p chunk_bytes bit for bit.
 */
std::string
linaSpec(double chunk_bytes, int r)
{
    const double mb = chunk_bytes / (1 << 20);
    if (!(mb >= 1.0 / 1024.0 && mb <= 1024.0))
        return "";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", mb);
    return std::string("PipeMoE+Lina?chunkMB=") + buf +
           "&degree=" + std::to_string(r);
}

/**
 * Schedule::graphKey's contract on @p cost: every builtin schedule at
 * its defaults, each degree-taking one at degrees 0..rMax, and Lina at
 * chunk sizes 1 KB, 30 MB, 1024 MB and around G, the total gradient
 * bytes folded last layer first, at each degree. Specs with one key
 * must build identical graphs, with equal bounds and makespan bits;
 * the chunk just below G must keep a key apart from G's. Returns the
 * number of keys that more than one spec shares.
 */
size_t
expectEqualKeysBuildOneGraph(const ModelCost &cost, const std::string &where)
{
    double grad = 0.0;
    for (auto it = cost.layers.rbegin(); it != cost.layers.rend(); ++it)
        grad += it->workload.gradBytes;
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<double> chunks = {
        1024.0, 30.0 * (1 << 20), std::nextafter(grad, 0.0), grad,
        std::nextafter(grad, inf), 2.0 * grad, 1024.0 * (1 << 20)};

    std::vector<std::string> specs = ScheduleRegistry::instance().names();
    for (const std::string &name : degreeSearchingSchedules()) {
        for (int r = 0; r <= cost.rMax; ++r) {
            if (name != "PipeMoE+Lina") {
                specs.push_back(withDegree(name, r));
                continue;
            }
            for (const double c : chunks) {
                const std::string spec = linaSpec(c, r);
                if (!spec.empty())
                    specs.push_back(spec);
            }
        }
    }
    // At G one full bucket takes the whole gradient; a chunk one ulp
    // below fills a bucket and leaves a remainder for a second one.
    const std::string below = linaSpec(std::nextafter(grad, 0.0), 1);
    const std::string at = linaSpec(grad, 1);
    if (!below.empty() && !at.empty()) {
        EXPECT_NE(Schedule::create(below)->graphKey(cost),
                  Schedule::create(at)->graphKey(cost))
            << where;
    }

    std::map<std::string, std::vector<std::string>> byKey;
    for (const std::string &spec : specs)
        byKey[Schedule::create(spec)->graphKey(cost)].push_back(spec);
    size_t shared = 0;
    for (const auto &[key, group] : byKey) {
        if (group.size() < 2)
            continue;
        ++shared;
        const auto first = Schedule::create(group.front());
        const sim::TaskGraph want = first->build(cost);
        const double makespan = sim::Simulator{}.run(want).makespan;
        const double bound = first->makespanLowerBound(cost);
        for (size_t i = 1; i < group.size(); ++i) {
            const std::string what =
                where + " key " + key + ": " + group[i] + " vs " +
                group.front();
            const auto sched = Schedule::create(group[i]);
            const sim::TaskGraph got = sched->build(cost);
            expectSameGraph(got, want, what);
            EXPECT_TRUE(test::sameBits(sim::Simulator{}.run(got).makespan,
                                       makespan))
                << what;
            EXPECT_TRUE(
                test::sameBits(sched->makespanLowerBound(cost), bound))
                << what;
        }
    }
    return shared;
}

TEST(Schedules, EqualGraphKeysBuildIdenticalGraphs)
{
    // The nine demo and tuner configurations (on mixtral-7b G is above
    // chunkMB's 1024 MB top, so no chunk size there reaches it) and
    // the seeded random models of the bound tests.
    std::map<std::string, runtime::Scenario> configs = demoConfigs();
    runtime::Scenario small_r = tunerQuery();
    small_r.rMax = 4;
    configs.emplace(small_r.costKey(), small_r);
    ASSERT_EQ(configs.size(), 9u);
    for (const auto &[key, s] : configs) {
        const size_t shared = expectEqualKeysBuildOneGraph(
            runtime::ScenarioRegistry::instance().makeCost(s), key);
        // Tutel, Tutel-Improved and Lina share their default key with
        // degree=0 and, for Lina, chunkMB=30&degree=0.
        if (s.model == "gpt2xl-moe") {
            // Lina's chunks G, G's successor, 2G and 1024 MB also share
            // one key at each degree 0..rMax.
            EXPECT_EQ(shared, static_cast<size_t>(s.rMax + 1) + 3) << key;
        } else {
            EXPECT_EQ(shared, 3u) << key;
        }
    }

    // On the tuner's query every chunk of G or more shares one key per
    // degree; a chunk below G keeps its default key, which fills in
    // the default degree.
    const ModelCost cost =
        runtime::ScenarioRegistry::instance().makeCost(tunerQuery());
    const auto lina = [&](const char *spec) {
        return Schedule::create(spec)->graphKey(cost);
    };
    EXPECT_EQ(lina("lina?chunkMB=200&degree=3"),
              lina("lina?chunkMB=1024&degree=3"));
    EXPECT_NE(lina("lina?chunkMB=200&degree=3"),
              lina("lina?chunkMB=200&degree=4"));
    EXPECT_EQ(lina("lina?chunkMB=30"), "PipeMoE+Lina?chunkMB=30&degree=0");

    constexpr int kSeeds = 40;
    for (int seed = 0; seed < kSeeds; ++seed) {
        std::mt19937 rng(0xb0u + static_cast<unsigned>(seed));
        expectEqualKeysBuildOneGraph(boundTestModel(rng),
                                     "seed " + std::to_string(seed));
        if (::testing::Test::HasFailure())
            FAIL() << "first failure at seed " << seed;
    }
}

/**
 * @p info's bare name, every spec that spells out some of its declared
 * defaults (each nonempty subset, at the default's text), and each
 * defaulted parameter alone at another value. Returns the bare name
 * and the specs spelling defaults in *same, the others in *other.
 */
void
defaultSpellings(const ScheduleInfo &info, std::vector<std::string> *same,
                 std::vector<std::string> *other)
{
    std::vector<const ScheduleParamInfo *> defaulted;
    for (const ScheduleParamInfo &p : info.params)
        if (!p.defaultValue.empty())
            defaulted.push_back(&p);
    *same = {info.name};
    for (size_t mask = 1; mask < (size_t{1} << defaulted.size()); ++mask) {
        std::string spec = info.name;
        char sep = '?';
        for (size_t j = 0; j < defaulted.size(); ++j) {
            if ((mask >> j & 1) == 0)
                continue;
            spec += sep + defaulted[j]->key + "=" + defaulted[j]->defaultValue;
            sep = '&';
        }
        same->push_back(spec);
    }
    other->clear();
    for (const ScheduleParamInfo *p : defaulted) {
        std::string value;
        switch (p->type) {
          case ScheduleParamType::Int:
            value = std::to_string(std::stoll(p->defaultValue) + 1);
            break;
          case ScheduleParamType::Double:
            value = std::to_string(std::stod(p->defaultValue) + 1.0);
            break;
          case ScheduleParamType::Bool:
            value = p->defaultValue == "true" ? "false" : "true";
            break;
        }
        other->push_back(info.name + "?" + p->key + "=" + value);
    }
}

TEST(Schedules, EqualGraphKeysBuildEqualGraphs)
{
    // On the eight demo configurations, two kinds of pair the tuner's
    // frontier pass prices once:
    //  - each builtin's bare spec and every spec spelling out some of
    //    its defaults, which the default graph key fills in alike,
    //    while a non-default value keeps a key of its own;
    //  - each degree search's winner and its fixed-degree twin, the
    //    same spec at the degree the search picked, built from typed
    //    values as the tuner builds it.
    // Equal keys must mean task-by-task equal graphs and bitwise-equal
    // runs.
    const ScheduleRegistry &reg = ScheduleRegistry::instance();
    const std::map<std::string, runtime::Scenario> configs = demoConfigs();
    ASSERT_EQ(configs.size(), 8u);
    const double inf = std::numeric_limits<double>::infinity();
    size_t pairs = 0;
    for (const auto &[key, s] : configs) {
        const ModelCost cost =
            runtime::ScenarioRegistry::instance().makeCost(s);
        for (const ScheduleInfo &info : reg.list()) {
            std::vector<std::string> same, other;
            defaultSpellings(info, &same, &other);
            const auto bare = Schedule::create(info.name);
            const std::string bare_key = bare->graphKey(cost);
            const sim::TaskGraph want = bare->build(cost);
            const sim::SimResult want_run = sim::Simulator{}.run(want);
            for (size_t i = 1; i < same.size(); ++i) {
                const std::string what = key + " " + same[i];
                const auto sched = Schedule::create(same[i]);
                EXPECT_EQ(sched->graphKey(cost), bare_key) << what;
                const sim::TaskGraph got = sched->build(cost);
                expectSameGraph(got, want, what);
                test::expectIdentical(got, sim::Simulator{}.run(got),
                                      want_run, what);
                ++pairs;
            }
            for (const std::string &spec : other)
                EXPECT_NE(Schedule::create(spec)->graphKey(cost), bare_key)
                    << key << " " << spec;
        }

        const std::pair<const char *, double> searches[] = {
            {"Tutel", 0.0},
            {"Tutel-Improved", 0.0},
            {"PipeMoE+Lina", 0.0},
            {"PipeMoE+Lina", 1024.0}};
        for (const auto &[name, chunk_mb] : searches) {
            ScheduleParams params;
            if (chunk_mb > 0.0)
                params.setDouble("chunkMB", chunk_mb);
            std::string error;
            const auto search = reg.tryCreate(name, params, &error);
            ASSERT_NE(search, nullptr) << error;
            const std::string what = key + " " + search->spec();
            SimulatedGraph winner;
            ASSERT_LT(search->makespanBelow(cost, inf, &winner), inf) << what;
            ASSERT_GE(winner.degree, 1) << what;
            params.setInt("degree", winner.degree);
            const auto twin = reg.tryCreate(name, params, &error);
            ASSERT_NE(twin, nullptr) << error;
            EXPECT_EQ(twin->graphKey(cost),
                      Schedule::create(twin->spec())->graphKey(cost))
                << what;
            const sim::TaskGraph got = twin->build(cost);
            expectSameGraph(got, winner.graph, what + " twin");
            test::expectIdentical(got, sim::Simulator{}.run(got),
                                  winner.sim, what + " twin");
            ++pairs;
        }
    }
    // Per configuration: DS-MoE 3, Tutel and Tutel-Improved 1 each,
    // Lina 3, the two FSMoEs 1 each, and 4 twins.
    EXPECT_EQ(pairs, 8u * (3 + 1 + 1 + 3 + 1 + 1 + 4));
}

/**
 * The per-bucket walk Lina's degree-free bound took before it became
 * closed-form, kept as this oracle: the rounded fold, in emit() order,
 * of Lina's bucket AllReduce durations at @p chunk_bytes, with their
 * count in *buckets.
 */
double
linaBucketFold(const ModelCost &cost, double chunk_bytes, size_t *buckets)
{
    const LinearModel &allreduce = cost.models.allreduce;
    const double full_ms = allreduce.predict(chunk_bytes);
    double pending = 0.0;
    double sum = 0.0;
    *buckets = 0;
    for (auto it = cost.layers.rbegin(); it != cost.layers.rend(); ++it) {
        pending += it->workload.gradBytes;
        while (pending >= chunk_bytes) {
            sum += full_ms;
            ++*buckets;
            pending -= chunk_bytes;
        }
    }
    if (pending > 0.0) {
        sum += allreduce.predict(pending);
        ++*buckets;
    }
    return sum;
}

TEST(Schedules, LinasBucketBoundStaysJustBelowTheBucketWalk)
{
    // Lina's degree-free bound finds its bucket count in closed form.
    // Against the per-bucket walk's fold W, which the last bucket's
    // finish reaches: on the eight demo configurations at chunkMB
    // 1/1024, 0.5, 1, 30, G (the gradient total, where it lies in
    // chunkMB's range) and 1024, and at 500 seeded log-uniform chunks
    // over that range dealt round the configurations, the bound is
    // never above W and at most 8(n + 3) 2^-53 + 1e-12 of it below, n
    // the walk's bucket count: twice sumLowerBound's shrink, which
    // also covers the fold's rounding, plus far more than the rounding
    // allowance's share. So DE's probes are cut as the walk cut them,
    // but for cutoffs that close to a bound.
    std::vector<ModelCost> costs;
    std::vector<std::string> keys;
    for (const auto &[key, s] : demoConfigs()) {
        costs.push_back(runtime::ScenarioRegistry::instance().makeCost(s));
        keys.push_back(key);
    }
    ASSERT_EQ(costs.size(), 8u);
    size_t checked = 0;
    const auto expectNearWalk = [&](size_t c, double chunk_mb) {
        char mb[32];
        std::snprintf(mb, sizeof mb, "%.17g", chunk_mb);
        const std::string spec =
            std::string("PipeMoE+Lina?chunkMB=") + mb + "&degree=0";
        const double bound = asDegreeSchedule(*Schedule::create(spec))
                                 .degreeFreeBound(costs[c]);
        size_t n = 0;
        const double walk = linaBucketFold(costs[c], chunk_mb * (1 << 20), &n);
        const double margin =
            8.0 * (static_cast<double>(n) + 3.0) * 0x1p-53 + 1e-12;
        EXPECT_LE(bound, walk) << keys[c] << " " << spec;
        EXPECT_GE(bound, walk * (1.0 - margin))
            << keys[c] << " " << spec << ": " << n << " buckets, "
            << (walk - bound) / walk << " below";
        ++checked;
    };
    for (size_t c = 0; c < costs.size(); ++c) {
        double grad = 0.0;
        for (auto it = costs[c].layers.rbegin(); it != costs[c].layers.rend();
             ++it)
            grad += it->workload.gradBytes;
        for (const double mb :
             {1.0 / 1024.0, 0.5, 1.0, 30.0, grad / (1 << 20), 1024.0})
            if (mb <= 1024.0)
                expectNearWalk(c, mb);
    }
    std::mt19937_64 rng(0x11aab0u);
    std::uniform_real_distribution<double> exponent(-10.0, 10.0);
    for (size_t k = 0; k < 500; ++k)
        expectNearWalk(k % costs.size(), std::exp2(exponent(rng)));
    // G is above 1024 MB on the four mixtral-7b configurations.
    EXPECT_EQ(checked, 8u * 5 + 4 + 500);
}

TEST(DegreeSearch, TheDegreeFreeBoundStopsALosingLinaProbeFirst)
{
    // Lina at 1 KB buckets against the 30 MB default's makespan, the
    // tuner's losing probe: its buckets alone outlast the cutoff, so it
    // stops before any candidate is tallied or simulated.
    const ModelCost cost =
        runtime::ScenarioRegistry::instance().makeCost(tunerQuery());
    const double cutoff =
        sim::Simulator{}.run(Schedule::create("lina")->build(cost)).makespan;
    const auto value = [](const char *name) {
        return stats::counter(name).value();
    };
    for (const std::string spec :
         {"lina?chunkMB=0.0009765625", "lina?chunkMB=0.0009765625&degree=1"}) {
        const uint64_t cuts = value("schedule.search.degreeFreeCut");
        const uint64_t candidates = value("schedule.search.candidates");
        const uint64_t runs = value("sim.runs");
        EXPECT_EQ(Schedule::create(spec)->makespanBelow(cost, cutoff),
                  std::numeric_limits<double>::infinity())
            << spec;
        EXPECT_EQ(value("schedule.search.degreeFreeCut"), cuts + 1) << spec;
        EXPECT_EQ(value("schedule.search.candidates"), candidates) << spec;
        EXPECT_EQ(value("sim.runs"), runs) << spec;
    }
    // The default probe itself is not cut by it.
    const uint64_t cuts = value("schedule.search.degreeFreeCut");
    EXPECT_TRUE(test::sameBits(
        Schedule::create("lina")->makespanBelow(
            cost, std::numeric_limits<double>::infinity()),
        cutoff));
    EXPECT_EQ(value("schedule.search.degreeFreeCut"), cuts);
}

} // namespace
} // namespace fsmoe::core
