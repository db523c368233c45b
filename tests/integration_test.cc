/**
 * @file
 * Cross-module integration tests: the full FSMoE pipeline from online
 * profiling through degree solving, gradient partitioning, schedule
 * generation and simulation; plus the functional layer driven by the
 * same configurations the scheduler prices.
 */
#include <utility>

#include <gtest/gtest.h>

#include "core/dispatch.h"
#include "core/moe_layer.h"
#include "core/profiler.h"
#include "core/schedules/schedule.h"
#include "model/gpipe.h"
#include "model/models.h"
#include "test_util.h"

namespace fsmoe {
namespace {

/**
 * The paper's end-to-end flow: profile the cluster (noisy), fit
 * models, solve degrees, partition gradients, emit the FSMoE schedule
 * and simulate. Fitted-model scheduling must land within a few
 * percent of ground-truth-model scheduling.
 */
TEST(EndToEnd, ProfiledModelsMatchGroundTruthScheduling)
{
    sim::ClusterSpec cluster = sim::testbedB();
    cluster.measurementNoise = 0.01;
    core::Profiler profiler(cluster, 99, 5);
    core::PerfModelSet fitted;
    for (const auto &[op, model] :
         {std::pair{core::ProfileOp::AlltoAll, &fitted.alltoall},
          std::pair{core::ProfileOp::AllGather, &fitted.allgather},
          std::pair{core::ProfileOp::ReduceScatter, &fitted.reducescatter},
          std::pair{core::ProfileOp::AllReduce, &fitted.allreduce},
          std::pair{core::ProfileOp::Gemm, &fitted.gemm}})
        *model = profiler.profile(op).model;
    core::PerfModelSet truth = core::PerfModelSet::fromCluster(cluster);

    model::ModelSpec spec = model::mixtral7B(cluster.numNodes, 1, 256, 7);
    core::ParallelConfig par = model::paperParallelism(cluster);

    core::ModelCost cost_fit, cost_truth;
    cost_fit.models = fitted;
    cost_truth.models = truth;
    for (int i = 0; i < spec.numLayers; ++i) {
        cost_fit.layers.push_back(
            core::makeLayerCost(fitted, spec.layer, par));
        cost_truth.layers.push_back(
            core::makeLayerCost(truth, spec.layer, par));
    }
    auto sched = core::Schedule::create("fsmoe");
    double t_fit = sched->iterationTimeMs(cost_fit);
    double t_truth = sched->iterationTimeMs(cost_truth);
    EXPECT_NEAR(t_fit, t_truth, 0.05 * t_truth);
}

/** Run every schedule over every model of Fig. 6 and check ordering. */
TEST(EndToEnd, Fig6OrderingHoldsOnAllModels)
{
    struct Case
    {
        model::ModelSpec spec;
        sim::ClusterSpec cluster;
    };
    sim::ClusterSpec a = sim::testbedA();
    sim::ClusterSpec b = sim::testbedB();
    std::vector<Case> cases = {
        {model::gpt2XlMoe(a.numNodes, 1, 1024, 6), a},
        {model::mixtral7B(a.numNodes, 1, 1024, 6), a},
        {model::gpt2XlMoe(b.numNodes, 1, 256, 6), b},
        {model::mixtral7B(b.numNodes, 1, 256, 7), b},
    };
    for (const Case &c : cases) {
        core::ModelCost cost = model::makeModelCost(
            c.spec, c.cluster, model::paperParallelism(c.cluster));
        double ds = core::Schedule::create("ds-moe")->iterationTimeMs(cost);
        double tutel = core::Schedule::create("tutel")
                           ->iterationTimeMs(cost);
        double fsmoe = core::Schedule::create("fsmoe")
                           ->iterationTimeMs(cost);
        EXPECT_LT(tutel, ds) << c.spec.name << " on " << c.cluster.name;
        EXPECT_LE(fsmoe, tutel * 1.001)
            << c.spec.name << " on " << c.cluster.name;
        EXPECT_GT(ds / fsmoe, 1.10)
            << "FSMoE speedup over DS-MoE implausibly small for "
            << c.spec.name;
    }
}

/**
 * Functional + scheduling coherence: the same LayerShape drives both
 * the numeric layer and the workload derivation; the layer must
 * execute and the workload must be positive and finite.
 */
TEST(EndToEnd, ShapeDrivesBothFunctionalAndScheduledPaths)
{
    core::LayerShape shape;
    shape.batch = 1;
    shape.seqLen = 32;
    shape.embed = 32;
    shape.hidden = 64;
    shape.numExperts = 4;
    shape.topK = 2;
    shape.capacityFactor = 0.0;

    // Functional path.
    core::MoeLayerOptions opt;
    opt.embed = shape.embed;
    opt.hidden = shape.hidden;
    opt.numExperts = static_cast<int>(shape.numExperts);
    opt.topK = shape.topK;
    opt.capacityFactor = shape.capacityFactor;
    opt.numEp = 2;
    opt.numEsp = 2;
    core::MoeLayer layer(opt);
    Rng rng(5);
    std::vector<Tensor> xs;
    for (int r = 0; r < layer.worldSize(); ++r)
        xs.push_back(rng.normalTensor({shape.tokens(), shape.embed}));
    auto ys = layer.forward(xs);
    EXPECT_EQ(ys.size(), 4u);

    // Scheduled path.
    core::ParallelConfig par;
    par.numMp = 2;
    par.numEsp = 2;
    par.numEp = 2;
    core::Workload w = core::deriveWorkload(shape, par);
    EXPECT_GT(w.a2aBytes, 0.0);
    EXPECT_GT(w.expertMacs, 0.0);
    core::PerfModelSet models =
        core::PerfModelSet::fromCluster(sim::testbedB());
    core::PipelineSolution sol = core::solvePipeline(
        core::makeProblem(models, w, core::Phase::Forward));
    EXPECT_GE(sol.r, 1);
}

TEST(EndToEnd, DispatchCostModelsAreOrderedSensibly)
{
    sim::ClusterSpec cluster = sim::testbedA();
    // Small messages: hierarchical staging helps by amortising the
    // inter-node startup across fewer, larger messages.
    double small = 64.0 * 1024;
    double direct_s =
        core::a2aCostMs(cluster, dist::A2aAlgo::NcclDirect, small);
    double h2d_s = core::a2aCostMs(cluster, dist::A2aAlgo::Hier2D, small);
    EXPECT_LT(h2d_s, direct_s);
    // Large messages: the extra intra-node pass costs bandwidth, so
    // direct wins — the crossover the A2A literature reports.
    double large = 256.0 * (1 << 20);
    double direct_l =
        core::a2aCostMs(cluster, dist::A2aAlgo::NcclDirect, large);
    double h2d_l = core::a2aCostMs(cluster, dist::A2aAlgo::Hier2D, large);
    EXPECT_GT(h2d_l, direct_l);
    // One GPU per node degenerates to direct.
    sim::ClusterSpec flat = cluster;
    flat.gpusPerNode = 1;
    EXPECT_DOUBLE_EQ(
        core::a2aCostMs(flat, dist::A2aAlgo::Hier1D, small),
        core::a2aCostMs(flat, dist::A2aAlgo::NcclDirect, small));
}

TEST(EndToEnd, GpipeAndFlatSchedulingAgreeOnRanking)
{
    sim::ClusterSpec cluster = sim::testbedA();
    model::ModelSpec spec = model::mixtral7B(3, 4, 512, 8);
    auto ds = core::Schedule::create("ds-moe");
    auto tutel = core::Schedule::create("tutel");
    auto fsmoe = core::Schedule::create("fsmoe");
    model::GpipeResult rds = model::gpipeIteration(*ds, spec, cluster, 2,
                                                   4);
    model::GpipeResult rt = model::gpipeIteration(*tutel, spec, cluster,
                                                  2, 4);
    model::GpipeResult rf = model::gpipeIteration(*fsmoe, spec, cluster,
                                                  2, 4);
    EXPECT_LT(rt.iterationMs, rds.iterationMs);
    EXPECT_LE(rf.iterationMs, rt.iterationMs * 1.001);
}

/**
 * Property sweep: across a random sample of Table-4-style shapes the
 * FSMoE schedule never loses to Tutel and never beats the obvious
 * lower bound (the slowest single resource).
 */
class ScheduleSweepTest : public ::testing::TestWithParam<int>
{
};

TEST_P(ScheduleSweepTest, FsMoeBoundedAndWinning)
{
    Rng rng(1000 + GetParam());
    sim::ClusterSpec cluster =
        GetParam() % 2 ? sim::testbedA() : sim::testbedB();
    core::LayerShape shape;
    shape.batch = 1 << rng.integer(0, 2);
    shape.seqLen = 256 << rng.integer(0, 2);
    shape.embed = 1024 << rng.integer(0, 2);
    shape.hidden = shape.embed * rng.integer(2, 4);
    shape.numExperts = cluster.numNodes;
    shape.ffn = rng.integer(0, 1) ? core::FfnType::Mixtral
                                  : core::FfnType::Simple;

    core::ModelCost cost;
    cost.models = core::PerfModelSet::fromCluster(cluster);
    cost.layers.push_back(core::makeLayerCost(
        cost.models, shape, model::paperParallelism(cluster)));

    double tutel =
        core::Schedule::create("tutel")
            ->iterationTimeMs(cost);
    double fsmoe =
        core::Schedule::create("fsmoe")
            ->iterationTimeMs(cost);
    EXPECT_LE(fsmoe, tutel * 1.001);

    // Lower bound: total compute alone (both phases).
    const core::LayerCost &lc = cost.layers[0];
    double compute = lc.fwd.experts + lc.fwd.attention + lc.bwd.experts +
                     lc.bwd.attention;
    EXPECT_GE(fsmoe, compute);
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, ScheduleSweepTest,
                         ::testing::Range(0, 12));

} // namespace
} // namespace fsmoe
