/**
 * @file
 * Tests for the adaptive gradient partitioner (§5): byte conservation,
 * causality, window filling, and step-2 improvement.
 */
#include <gtest/gtest.h>

#include "base/stats.h"
#include "core/grad_partition.h"
#include "core/moe_config.h"
#include "core/schedules/schedule.h"
#include "sim/cluster.h"

namespace fsmoe::core {
namespace {

/** A small stack of identical generalized layers on Testbed B. */
std::vector<GeneralizedLayer>
makeLayers(int n, double grad_mb = 8.0, double dense_ms = 0.5)
{
    sim::ClusterSpec cluster = sim::testbedB();
    PerfModelSet models = PerfModelSet::fromCluster(cluster);
    ParallelConfig par;
    par.numMp = cluster.gpusPerNode;
    par.numEsp = cluster.gpusPerNode;
    par.numEp = cluster.numNodes;
    LayerShape shape;
    shape.embed = 2048;
    shape.hidden = 6144;
    shape.numExperts = cluster.numNodes;
    Workload w = deriveWorkload(shape, par);

    std::vector<GeneralizedLayer> layers;
    for (int i = 0; i < n; ++i) {
        GeneralizedLayer gl;
        gl.moe = makeProblem(models, w, Phase::Backward);
        gl.denseOlpMs = dense_ms;
        gl.gradBytes = grad_mb * (1 << 20);
        layers.push_back(gl);
    }
    return layers;
}

LinearModel
arModel()
{
    sim::ClusterSpec cluster = sim::testbedB();
    return {cluster.allreduce.alpha, cluster.allreduce.beta, 1.0};
}

TEST(GradPartition, ConservesBytes)
{
    auto layers = makeLayers(6);
    GradPartitionPlan plan = partitionGradients(layers, arModel());
    double total_in = 0.0, total_out = plan.exposedBytes;
    for (size_t i = 0; i < layers.size(); ++i) {
        total_in += layers[i].gradBytes;
        total_out += plan.denseBytes[i] + plan.moeBytes[i];
    }
    EXPECT_NEAR(total_out, total_in, 1.0);
}

TEST(GradPartition, FirstLayerLimitedToOwnGradient)
{
    // Backward's first layer can hide at most its own gradient (which
    // its pipeline produces chunk by chunk, Fig. 3d); nothing from
    // other layers exists yet.
    auto layers = makeLayers(5);
    GradPartitionPlan plan = partitionGradients(layers, arModel());
    EXPECT_LE(plan.denseBytes[0] + plan.moeBytes[0],
              layers[0].gradBytes + 1.0);
}

TEST(GradPartition, CausalityHoldsEverywhere)
{
    auto layers = makeLayers(7, 12.0);
    GradPartitionPlan plan = partitionGradients(layers, arModel());
    double produced = 0.0, assigned = 0.0;
    for (size_t i = 0; i < layers.size(); ++i) {
        produced += layers[i].gradBytes;
        assigned += plan.denseBytes[i] + plan.moeBytes[i];
        EXPECT_LE(assigned, produced + 1.0)
            << "layer " << i << " overlaps gradients not yet produced";
    }
}

TEST(GradPartition, SmallGradientsFullyOverlapped)
{
    auto layers = makeLayers(6, /*grad_mb=*/0.2, /*dense_ms=*/2.0);
    GradPartitionPlan plan = partitionGradients(layers, arModel());
    EXPECT_NEAR(plan.exposedBytes, 0.0, 1.0)
        << "tiny gradients should hide completely in dense windows";
}

TEST(GradPartition, HugeGradientsLeaveExposedTail)
{
    auto layers = makeLayers(3, /*grad_mb=*/400.0, /*dense_ms=*/0.1);
    GradPartitionPlan plan =
        partitionGradients(layers, arModel(), {}, false);
    EXPECT_GT(plan.exposedBytes, 0.0);
}

TEST(GradPartition, Step2NeverWorseThanStep1Alone)
{
    auto layers = makeLayers(6, 30.0, 0.3);
    solver::DeConfig de;
    de.maxGenerations = 60;
    GradPartitionPlan greedy =
        partitionGradients(layers, arModel(), de, false);
    GradPartitionPlan full = partitionGradients(layers, arModel(), de,
                                                true);
    EXPECT_LE(full.totalTimeMs, greedy.totalTimeMs * 1.001);
}

/** A partition's output bits, pinned when the plan must not move. */
struct PinnedPlan
{
    double totalTimeMs;
    double exposedBytes;
    int deGenerations;
    std::vector<double> moeBytes;
    std::vector<int> r;
};

void
expectPinned(const GradPartitionPlan &plan, const PinnedPlan &pin)
{
    EXPECT_EQ(plan.totalTimeMs, pin.totalTimeMs);
    EXPECT_EQ(plan.exposedBytes, pin.exposedBytes);
    EXPECT_EQ(plan.deGenerations, pin.deGenerations);
    ASSERT_EQ(plan.moeBytes.size(), pin.moeBytes.size());
    ASSERT_EQ(plan.solutions.size(), pin.r.size());
    for (size_t i = 0; i < pin.moeBytes.size(); ++i) {
        EXPECT_EQ(plan.moeBytes[i], pin.moeBytes[i]) << "layer " << i;
        EXPECT_EQ(plan.solutions[i].r, pin.r[i]) << "layer " << i;
    }
}

TEST(GradPartition, Step2PlanBitsArePinned)
{
    // Step 2 with FSMoE's DE budget on both channel models, pinned to
    // 17 digits: the step-2 objective must equal the exhaustive integer
    // solves bit for bit, or DE takes another path, and this input
    // reaches expressions the blessed demo grid may not.
    solver::DeConfig de;
    de.populationSize = 24;
    de.maxGenerations = 80;
    const auto layers = makeLayers(6, 30.0, 0.3);
    expectPinned(partitionGradients(layers, arModel(), de, true, false),
                 {190.17268890239995,
                  9526173.5256271958,
                  54,
                  {25524849.683044892, 22945879.074664507,
                   26020648.539906114, 37608037.489372171,
                   40239226.952166632, 24712253.716854524},
                  {1, 1, 1, 1, 1, 1}});
    expectPinned(partitionGradients(layers, arModel(), de, true, true),
                 {231.06593389439996,
                  1621965.5232794881,
                  40,
                  {12644137.874764711, 31821530.754858941,
                   22869303.142960511, 9686793.9780983739,
                   70406642.622865632, 37526695.084808394},
                  {1, 1, 1, 1, 1, 1}});
}

TEST(GradPartition, CountsDeEvaluationsAndCutTrials)
{
    // Every DE evaluation is counted, cut or not: the initial
    // population plus one trial per member per generation. Trials the
    // floor bound proves lose to their parent are counted as cut.
    solver::DeConfig de;
    de.populationSize = 24;
    de.maxGenerations = 80;
    stats::Counter &evals = stats::counter("solver.partition.de.evals");
    stats::Counter &cut = stats::counter("solver.partition.de.cut");
    const uint64_t evals0 = evals.value(), cut0 = cut.value();
    const GradPartitionPlan plan =
        partitionGradients(makeLayers(6, 30.0, 0.3), arModel(), de);
    EXPECT_EQ(evals.value() - evals0,
              static_cast<uint64_t>(24 * (1 + plan.deGenerations)));
    EXPECT_GT(cut.value() - cut0, 0u);
    EXPECT_LT(cut.value() - cut0, evals.value() - evals0);
}

TEST(GradPartition, TGarReflectsAssignedBytes)
{
    auto layers = makeLayers(5, 20.0);
    LinearModel ar = arModel();
    GradPartitionPlan plan = partitionGradients(layers, ar);
    for (size_t i = 0; i < layers.size(); ++i) {
        if (plan.moeBytes[i] > 0.0) {
            EXPECT_NEAR(plan.tGar[i], ar.predict(plan.moeBytes[i]), 1e-9);
        } else {
            EXPECT_EQ(plan.tGar[i], 0.0);
        }
    }
}

TEST(GradPartition, SolutionsUseSolvedDegrees)
{
    auto layers = makeLayers(4);
    GradPartitionPlan plan = partitionGradients(layers, arModel());
    ASSERT_EQ(plan.solutions.size(), layers.size());
    for (const PipelineSolution &sol : plan.solutions) {
        EXPECT_GE(sol.r, 1);
        EXPECT_GT(sol.tMoe, 0.0);
    }
}

} // namespace
} // namespace fsmoe::core
