/**
 * @file
 * Tests for the six schedule generators: graph validity, per-op time
 * conservation, the performance orderings the paper reports (DS-MoE
 * slowest; FSMoE at least as fast as its No-IIO ablation and the Tutel
 * baselines), and exactness of the pruned Tutel/Lina degree search
 * against the unpruned loop.
 */
#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "base/stats.h"
#include "core/schedules/schedule.h"
#include "core/schedules/schedule_registry.h"
#include "model/models.h"
#include "runtime/scenario.h"
#include "sim/cluster.h"
#include "sim/simulator.h"
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
 * simulate every fixed-degree variant, keeping a new best on a strict
 * <, ascending in r.
 */
detail::DegreeChoice
naiveSearch(const std::string &name, const ModelCost &cost)
{
    detail::DegreeChoice best;
    best.makespanMs = std::numeric_limits<double>::infinity();
    for (int r = 1; r <= cost.rMax; ++r) {
        const sim::TaskGraph g =
            Schedule::create(withDegree(name, r))->build(cost);
        const double t = sim::Simulator{}.run(g).makespan;
        if (t < best.makespanMs) {
            best.r = r;
            best.makespanMs = t;
        }
    }
    return best;
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
 * searching schedule: the same r and makespan bits from searchDegree
 * itself, and the same graph from the schedule's public build().
 */
void
expectPrunedSearchIsExact(const ModelCost &cost, const std::string &what)
{
    for (const std::string &name : degreeSearchingSchedules()) {
        const std::string where = what + " " + name;
        const detail::DegreeChoice want = naiveSearch(name, cost);
        const detail::DegreeChoice got = detail::searchDegree(
            cost, [&](sim::TaskGraph &g, int r) {
                test::replayGraph(
                    Schedule::create(withDegree(name, r))->build(cost), g);
            });
        EXPECT_EQ(got.r, want.r) << where;
        EXPECT_TRUE(test::sameBits(got.makespanMs, want.makespanMs))
            << where << ": " << got.makespanMs << " vs "
            << want.makespanMs;

        const sim::TaskGraph built = Schedule::create(name)->build(cost);
        expectSameGraph(built,
                        Schedule::create(withDegree(name, want.r))
                            ->build(cost),
                        where);
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
    constexpr int kSeeds = 24;
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

TEST(DegreeSearch, PruningSkipsCandidatesEvenInTheWorstDemoConfig)
{
    // mixtral-7b/testbedB/b2 Tutel picks r = 2 and has the fewest
    // candidates the link-sum bound skips of any demo configuration.
    const std::vector<runtime::Scenario> grid = runtime::demoGrid();
    const auto it = std::find_if(
        grid.begin(), grid.end(), [](const runtime::Scenario &s) {
            return s.model == "mixtral-7b" && s.cluster == "testbedB" &&
                   s.batch == 2;
        });
    ASSERT_NE(it, grid.end());
    const ModelCost cost = runtime::ScenarioRegistry::instance().makeCost(*it);
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
    // Only the simulated candidates run the simulator. r = 1 and
    // r = 2 each set a new best; every other simulated candidate loses
    // and is cut short.
    EXPECT_EQ(value("sim.runs") - runs, d_simulated);
    EXPECT_EQ(value("sim.runs.cut") - runs_cut,
              value("schedule.search.cut") - cut);
    EXPECT_EQ(value("schedule.search.cut") - cut, d_simulated - 2);
}

} // namespace
} // namespace fsmoe::core
