/**
 * @file
 * Tests for the adaptive gradient partitioner (§5): byte conservation,
 * causality, window filling, and step 2 against two oracles — a grid
 * DP over the same objective and differential evolution at several
 * seeds — on the demo grid's partitions and on seeded random stacks;
 * and step 2's carried DP against the full-raise one it replaced
 * (tests/place_remainder_reference.h), bit for bit.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "base/stats.h"
#include "core/grad_partition.h"
#include "core/moe_config.h"
#include "core/schedules/schedule.h"
#include "model/models.h"
#include "place_remainder_reference.h"
#include "runtime/scenario.h"
#include "sim/cluster.h"
#include "solver/differential_evolution.h"

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
    GradPartitionPlan plan = partitionGradients(layers, arModel(), false);
    EXPECT_GT(plan.exposedBytes, 0.0);
}

TEST(GradPartition, Step2NeverWorseThanStep1Alone)
{
    auto layers = makeLayers(6, 30.0, 0.3);
    GradPartitionPlan greedy = partitionGradients(layers, arModel(), false);
    GradPartitionPlan full = partitionGradients(layers, arModel(), true);
    EXPECT_LE(full.totalTimeMs, greedy.totalTimeMs);
}

/** The demo grid's FSMoE backward layers for one configuration. */
std::vector<GeneralizedLayer>
demoLayers(const runtime::Scenario &s, LinearModel *allreduce)
{
    const ModelCost cost = runtime::ScenarioRegistry::instance().makeCost(s);
    *allreduce = cost.models.allreduce;
    return detail::makeGeneralizedLayers(cost);
}

TEST(GradPartition, Step2BeatsStep1OnTheDemoNoIioRow)
{
    // gpt2xl-moe/testbedA/B=1 on the merged channel: every layer
    // starts step 2 at zero bytes, and adopting differential
    // evolution's plan unchecked predicted 153.13 ms against step 1's
    // 152.39 ms.
    runtime::Scenario s;
    s.model = "gpt2xl-moe";
    s.cluster = "testbedA";
    LinearModel ar;
    const auto layers = demoLayers(s, &ar);
    const GradPartitionPlan greedy = partitionGradients(layers, ar, false,
                                                        true);
    const GradPartitionPlan full = partitionGradients(layers, ar, true, true);
    EXPECT_LT(full.totalTimeMs, greedy.totalTimeMs);
    for (double m : greedy.moeBytes)
        EXPECT_EQ(m, 0.0);
}

TEST(GradPartition, Step2KeepsStep1WhenItDoesNotWin)
{
    // Two merged-channel layers on Testbed B's models, found by a
    // seeded search: the first hides all of its gradient, the second
    // starts step 2 at zero bytes with no flat from t_gar = 0 on. So
    // moving the tail into it ties with step 1 in real arithmetic (the
    // first byte's jump costs alpha, as the tail did), and here its
    // finalized total rounds above step 1's: step 1's plan stays.
    const auto layer = [](double a2a_bytes, double macs, double dense_ms,
                          double grad_bytes) {
        GeneralizedLayer gl;
        gl.moe.a2a = {0.175, 3.06e-07, a2a_bytes};
        gl.moe.ag = {0.032, 1.68e-07, a2a_bytes};
        gl.moe.rs = {0.0391, 1.67e-07, a2a_bytes};
        gl.moe.exp = {0.3696, 4.42e-11, macs};
        gl.moe.rMax = 8;
        gl.denseOlpMs = dense_ms;
        gl.gradBytes = grad_bytes;
        return gl;
    };
    const std::vector<GeneralizedLayer> layers = {
        layer(40265318.399999999, 989560464998.3999, 0.63308292808518485,
              13524982.1721595),
        layer(20132659.199999999, 164926744166.39999, 1.6503605846458371,
              8631773.0352559835)};
    const LinearModel ar{0.0837, 5.99e-07, 1.0};
    const GradPartitionPlan greedy = partitionGradients(layers, ar, false,
                                                        true);
    ASSERT_GT(greedy.exposedBytes, 0.0);
    EXPECT_EQ(greedy.moeBytes[1], 0.0);
    const GradPartitionPlan full = partitionGradients(layers, ar, true, true);
    EXPECT_LE(full.totalTimeMs, greedy.totalTimeMs);
}

/** A partition's output bits, pinned when the plan must not move. */
struct PinnedPlan
{
    double totalTimeMs;
    double exposedBytes;
    std::vector<double> moeBytes;
    std::vector<int> r;
};

void
expectPinned(const GradPartitionPlan &plan, const PinnedPlan &pin)
{
    EXPECT_EQ(plan.totalTimeMs, pin.totalTimeMs);
    EXPECT_EQ(plan.exposedBytes, pin.exposedBytes);
    EXPECT_EQ(plan.deGenerations, 0);
    ASSERT_EQ(plan.moeBytes.size(), pin.moeBytes.size());
    ASSERT_EQ(plan.solutions.size(), pin.r.size());
    for (size_t i = 0; i < pin.moeBytes.size(); ++i) {
        EXPECT_EQ(plan.moeBytes[i], pin.moeBytes[i]) << "layer " << i;
        EXPECT_EQ(plan.solutions[i].r, pin.r[i]) << "layer " << i;
    }
}

TEST(GradPartition, Step2PlanBitsArePinned)
{
    // Step 2 on both channel models, pinned to 17 digits: this input
    // reaches expressions the blessed demo grid may not, and a change
    // in how the envelopes' flats or the DP's pieces round moves it.
    const auto layers = makeLayers(6, 30.0, 0.3);
    // Every prefix bound binds here: each layer carries all that is
    // left when it runs.
    const std::vector<double> bytes = {
        31096178.16360601,   31096178.16360601,   31096178.163606003,
        31096178.163606003, 31096178.163606003, 31096178.163606018};
    expectPinned(partitionGradients(layers, arModel(), true, false),
                 {190.08898890239999, 0.0, bytes, {1, 1, 1, 1, 1, 1}});
    expectPinned(partitionGradients(layers, arModel(), true, true),
                 {230.9822338944, 0.0, bytes, {1, 1, 1, 1, 1, 1}});
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

// ------------------------------------------------ step 2's oracles

/** Step 2's problem as partitionGradients poses it after step 1. */
struct Step2Case
{
    std::vector<GeneralizedLayer> layers;
    LinearModel ar;
    bool merged = false;
    GradPartitionPlan step1;
    std::vector<DegreeTable> tables;
    std::vector<std::vector<DegreeTable::Interval>> flats;
    std::vector<double> available; ///< Unassigned bytes after layer i.
    double remaining = 0.0;
};

Step2Case
makeCase(std::vector<GeneralizedLayer> layers, const LinearModel &ar,
         bool merged)
{
    Step2Case c;
    c.layers = std::move(layers);
    c.ar = ar;
    c.merged = merged;
    c.step1 = partitionGradients(c.layers, ar, false, merged);
    // The same subtractions step 1 makes, so the same bits.
    double pending = 0.0;
    for (size_t i = 0; i < c.layers.size(); ++i) {
        c.tables.emplace_back(c.layers[i].moe);
        c.flats.push_back(c.tables.back().flats(merged));
        pending += c.layers[i].gradBytes;
        pending -= c.step1.denseBytes[i];
        pending -= c.step1.moeBytes[i];
        c.available.push_back(pending);
    }
    c.remaining = c.step1.exposedBytes;
    EXPECT_EQ(c.available.back(), c.remaining);
    return c;
}

double
garTime(const LinearModel &ar, double bytes)
{
    return bytes > 0.0 ? ar.predict(bytes) : 0.0;
}

/** Layer @p i's minimum makespan with @p x extra bytes. */
double
layerTime(const Step2Case &c, size_t i, double x)
{
    const double t = garTime(c.ar, c.step1.moeBytes[i] + x);
    return c.merged ? c.tables[i].minMergedTime(t) : c.tables[i].minTime(t);
}

/** Eq. 5's objective, summed in layer order as the DE objective was. */
double
objective(const Step2Case &c, const std::vector<double> &x, double tail)
{
    double total = 0.0;
    for (size_t i = 0; i < x.size(); ++i)
        total += layerTime(c, i, x[i]);
    return total + garTime(c.ar, tail);
}

/**
 * Brute force: x_i on a grid of remaining / @p steps bytes, a DP over
 * layers and cumulative grid steps. Sums in the objective's order, so
 * its value is the objective at the grid plan it finds.
 */
double
gridOptimum(const Step2Case &c, int steps)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double delta = c.remaining / steps;
    std::vector<double> best(steps + 1, kInf), next, cost(steps + 1);
    best[0] = 0.0;
    for (size_t i = 0; i < c.layers.size(); ++i) {
        const int cap = static_cast<int>(std::min<double>(
            steps, std::floor(c.available[i] / delta)));
        for (int j = 0; j <= steps; ++j)
            cost[j] = layerTime(c, i, j * delta);
        next.assign(steps + 1, kInf);
        for (int k = 0; k <= cap; ++k)
            for (int j = 0; j <= k; ++j)
                next[k] = std::min(next[k], best[k - j] + cost[j]);
        best.swap(next);
    }
    double opt = kInf;
    for (int k = 0; k <= steps; ++k)
        opt = std::min(opt, best[k] + garTime(c.ar, k == steps
                                                        ? 0.0
                                                        : c.remaining -
                                                              k * delta));
    return opt;
}

/**
 * Differential evolution on the objective at FSMoE's former budget
 * (24 x 80), with a penalty for breaking a prefix bound; its best
 * member is clipped to the feasible set and evaluated there.
 */
double
deOptimum(const Step2Case &c, uint64_t seed)
{
    const size_t n = c.layers.size();
    const double r = c.remaining;
    const auto clipped = [&](const std::vector<double> &x, double *tail) {
        std::vector<double> y(n);
        double cum = 0.0;
        for (size_t i = 0; i < n; ++i) {
            y[i] = std::min(std::max(0.0, x[i]),
                            std::max(0.0, c.available[i] - cum));
            cum += y[i];
        }
        *tail = std::max(0.0, r - cum);
        return y;
    };
    const auto penalised = [&](const std::vector<double> &x, double) {
        double cum = 0.0, violation = 0.0;
        for (size_t i = 0; i < n; ++i) {
            cum += x[i];
            violation += std::max(0.0, cum - c.available[i]);
        }
        return objective(c, x, std::max(0.0, r - cum)) +
               garTime(c.ar, violation) * 10.0 + c.ar.beta * violation;
    };
    solver::DeConfig de;
    de.populationSize = 24;
    de.maxGenerations = 80;
    de.seed = seed;
    const solver::DeResult res = solver::differentialEvolution(
        penalised, std::vector<double>(n, 0.0), std::vector<double>(n, r),
        de);
    double tail = 0.0;
    const std::vector<double> y = clipped(res.x, &tail);
    return objective(c, y, tail);
}

/** What one case exercised, for the coverage checks. */
struct Coverage
{
    int cases = 0, binding = 0, zeroFill = 0, merged = 0;
};

/**
 * Check one case: the exact step-2 value is at most the grid DP's and
 * every DE seed's, up to rounding of the summed objective; its plan
 * is non-negative, causal and carries exactly the remainder; and the
 * partition that adopts it is no worse than step 1 and conserves and
 * respects causality end to end.
 */
void
checkCase(const Step2Case &c, const std::string &name, Coverage *cov)
{
    SCOPED_TRACE(name);
    const size_t n = c.layers.size();
    const std::vector<double> x = placeRemainder(
        c.flats, c.step1.moeBytes, c.available, c.ar);
    ASSERT_EQ(x.size(), n);
    const double tol = 1e-9 * std::max(1.0, c.remaining);
    double cum = 0.0;
    bool binding = false;
    for (size_t i = 0; i < n; ++i) {
        EXPECT_GE(x[i], 0.0) << "layer " << i;
        cum += x[i];
        EXPECT_LE(cum, c.available[i] + tol) << "layer " << i;
        if (i + 1 < n && x[i] > 0.0 && cum >= c.available[i] - 1.0 &&
            c.available[i] < c.remaining - 1.0)
            binding = true;
    }
    EXPECT_NEAR(cum, c.remaining, tol);

    const double exact = objective(c, x, 0.0);
    // Exact in real arithmetic; the rounded sums differ by ulps.
    const double slack = 1e-14 * exact;
    const double grid = gridOptimum(c, 256);
    EXPECT_LE(exact, grid + slack) << "grid DP " << grid;
    for (uint64_t seed : {1ULL, 2ULL, 3ULL, 0x0d5eedULL})
        EXPECT_LE(exact, deOptimum(c, seed) + slack) << "DE seed " << seed;

    const GradPartitionPlan plan =
        partitionGradients(c.layers, c.ar, true, c.merged);
    EXPECT_LE(plan.totalTimeMs, c.step1.totalTimeMs);
    double produced = 0.0, assigned = 0.0;
    for (size_t i = 0; i < n; ++i) {
        produced += c.layers[i].gradBytes;
        assigned += plan.denseBytes[i] + plan.moeBytes[i];
        EXPECT_LE(assigned, produced + 1.0) << "layer " << i;
    }
    EXPECT_NEAR(assigned + plan.exposedBytes, produced, 1.0);

    ++cov->cases;
    cov->binding += binding ? 1 : 0;
    cov->merged += c.merged ? 1 : 0;
    for (size_t i = 0; i < n; ++i)
        if (c.step1.moeBytes[i] == 0.0 && c.available[i] > 0.0) {
            ++cov->zeroFill;
            break;
        }
}

TEST(GradPartitionOracle, ExactOnEveryDemoPartition)
{
    Coverage cov;
    for (const runtime::Scenario &s : runtime::demoGrid({1, 2}, {"FSMoE"})) {
        LinearModel ar;
        const auto layers = demoLayers(s, &ar);
        for (bool merged : {false, true})
            checkCase(makeCase(layers, ar, merged),
                      s.label() + (merged ? " merged" : ""), &cov);
    }
    EXPECT_EQ(cov.cases, 16);
    EXPECT_EQ(cov.merged, 8);
    EXPECT_GT(cov.zeroFill, 0);
}

/** A random stack of 2-8 layers with per-layer shapes and gradients. */
std::vector<GeneralizedLayer>
randomStack(std::mt19937_64 &rng, const sim::ClusterSpec &cluster)
{
    const PerfModelSet models = PerfModelSet::fromCluster(cluster);
    const ParallelConfig par = model::paperParallelism(cluster);
    std::uniform_int_distribution<int> layers_dist(2, 8), pick(0, 2);
    std::uniform_real_distribution<double> grad_mb(0.25, 160.0),
        dense_ms(0.0, 2.0);
    const int n = layers_dist(rng);
    const int r_max = 4 << pick(rng);
    std::vector<GeneralizedLayer> out;
    for (int i = 0; i < n; ++i) {
        LayerShape shape;
        shape.batch = 1 << pick(rng);
        shape.embed = 1024 << pick(rng);
        shape.hidden = shape.embed * (2 + 2 * pick(rng));
        shape.numExperts = cluster.numNodes;
        GeneralizedLayer gl;
        gl.moe = makeProblem(models, deriveWorkload(shape, par),
                             Phase::Backward, 0.0, r_max);
        gl.denseOlpMs = pick(rng) == 0 ? 0.0 : dense_ms(rng);
        gl.gradBytes = grad_mb(rng) * (1 << 20);
        out.push_back(gl);
    }
    return out;
}

TEST(GradPartitionOracle, ExactOnSeededRandomStacks)
{
    // Non-identical layers on both testbeds and channel models; the
    // coverage counts show the prefix bounds bind and zero-byte
    // starting layers (the garTime jump) occur.
    std::mt19937_64 rng(0x9a2d17ULL);
    Coverage cov;
    for (int k = 0; cov.cases < 200 && k < 2000; ++k) {
        const sim::ClusterSpec cluster =
            k % 2 == 0 ? sim::testbedA() : sim::testbedB();
        const auto layers = randomStack(rng, cluster);
        const LinearModel ar{cluster.allreduce.alpha, cluster.allreduce.beta,
                             1.0};
        const Step2Case c = makeCase(layers, ar, (k / 2) % 2 == 1);
        if (!(c.remaining > 0.0))
            continue; // step 1 hid everything: nothing for step 2
        checkCase(c, "random stack " + std::to_string(k), &cov);
    }
    EXPECT_EQ(cov.cases, 200);
    EXPECT_GE(cov.binding, 20);
    EXPECT_GE(cov.zeroFill, 20);
    EXPECT_GE(cov.merged, 50);
    EXPECT_GE(cov.cases - cov.merged, 50);
}

/**
 * A stack of 16-64 layers with one MoE shape and dense window, so
 * their flats agree: gradients all equal, light in the first half and
 * heavy in the second (the prefix bounds bind), none in the first
 * layer, or drawn per layer.
 */
std::vector<GeneralizedLayer>
identicalStack(std::mt19937_64 &rng, const sim::ClusterSpec &cluster)
{
    const PerfModelSet models = PerfModelSet::fromCluster(cluster);
    const ParallelConfig par = model::paperParallelism(cluster);
    std::uniform_int_distribution<int> layers_dist(16, 64), pick(0, 2),
        kinds(0, 3);
    std::uniform_real_distribution<double> grad_mb(0.25, 160.0),
        dense_ms(0.0, 2.0);
    const int n = layers_dist(rng);
    LayerShape shape;
    shape.batch = 1 << pick(rng);
    shape.embed = 1024 << pick(rng);
    shape.hidden = shape.embed * (2 + 2 * pick(rng));
    shape.numExperts = cluster.numNodes;
    GeneralizedLayer gl;
    gl.moe = makeProblem(models, deriveWorkload(shape, par), Phase::Backward,
                         0.0, 4 << pick(rng));
    gl.denseOlpMs = pick(rng) == 0 ? 0.0 : dense_ms(rng);
    const double light = grad_mb(rng) * (1 << 20);
    const double heavy = grad_mb(rng) * (1 << 20);
    const int kind = kinds(rng);
    std::vector<GeneralizedLayer> out(static_cast<size_t>(n), gl);
    for (int i = 0; i < n; ++i)
        out[i].gradBytes = kind == 0   ? light
                           : kind == 1 ? (2 * i < n ? light : heavy)
                           : kind == 2 ? (i == 0 ? 0.0 : light)
                                       : grad_mb(rng) * (1 << 20);
    return out;
}

uint64_t
bitsOf(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** What the bitwise comparisons exercised, for the coverage checks. */
struct CarryCoverage
{
    int cases = 0, carried = 0, fullRaise = 0, binding = 0, zeroFill = 0,
        merged = 0;
    uint64_t steps = 0, fullSteps = 0; ///< Swept by each DP, summed.
};

/**
 * placeRemainder against the full-raise reference on one case: the
 * same bits for every layer, and no more sweep steps. A case whose
 * DP swept fewer steps carried a settled prefix at some layer; one
 * that swept as many raised every layer in full.
 */
void
expectReferenceBits(const Step2Case &c, const std::string &name,
                    CarryCoverage *cov)
{
    SCOPED_TRACE(name);
    uint64_t full_steps = 0;
    const std::vector<double> want = reference::placeRemainder(
        c.flats, c.step1.moeBytes, c.available, c.ar, &full_steps);
    stats::Counter &steps = stats::counter("solver.partition.dp.steps");
    const uint64_t before = steps.value();
    const std::vector<double> got =
        placeRemainder(c.flats, c.step1.moeBytes, c.available, c.ar);
    const uint64_t swept = steps.value() - before;
    ASSERT_EQ(got.size(), want.size());
    bool binding = false;
    double cum = 0.0;
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(bitsOf(got[i]), bitsOf(want[i]))
            << "layer " << i << ": " << got[i] << " vs " << want[i];
        cum += want[i];
        if (i + 1 < got.size() && want[i] > 0.0 &&
            cum >= c.available[i] - 1.0 &&
            c.available[i] < c.remaining - 1.0)
            binding = true;
    }
    EXPECT_LE(swept, full_steps);

    ++cov->cases;
    cov->steps += swept;
    cov->fullSteps += full_steps;
    cov->carried += swept < full_steps ? 1 : 0;
    cov->fullRaise += swept == full_steps ? 1 : 0;
    cov->binding += binding ? 1 : 0;
    cov->merged += c.merged ? 1 : 0;
    cov->zeroFill += c.step1.moeBytes[0] == 0.0 ? 1 : 0;
}

TEST(GradPartitionOracle, CarriedDpKeepsTheFullRaiseBits)
{
    CarryCoverage demo;
    for (const runtime::Scenario &s : runtime::demoGrid({1, 2}, {"FSMoE"})) {
        LinearModel ar;
        const auto layers = demoLayers(s, &ar);
        for (bool merged : {false, true})
            expectReferenceBits(makeCase(layers, ar, merged),
                                s.label() + (merged ? " merged" : ""),
                                &demo);
    }
    EXPECT_EQ(demo.cases, 16);
    // gpt2xl-moe/testbedA's merged partitions settle nothing. A cold
    // demo sweep's solver.partition.dp.steps: the carried prefixes
    // save 46% of the full raises' sweep steps.
    EXPECT_EQ(demo.carried, 14);
    EXPECT_EQ(demo.steps, 32142u);
    EXPECT_EQ(demo.fullSteps, 60069u);

    // Identical layers on both testbeds and channel models, with
    // binding prefix bounds and layers starting step 2 at zero bytes.
    // Each again with every third layer's step-1 fill halved: the same
    // flats, but neighbours' gains differ, so those layers and the next
    // ones must not carry.
    std::mt19937_64 rng(0xc0ffeeULL);
    CarryCoverage same, refilled;
    for (int k = 0; same.cases < 240 && k < 2000; ++k) {
        const sim::ClusterSpec cluster =
            k % 2 == 0 ? sim::testbedA() : sim::testbedB();
        const LinearModel ar{cluster.allreduce.alpha, cluster.allreduce.beta,
                             1.0};
        const Step2Case c =
            makeCase(identicalStack(rng, cluster), ar, (k / 2) % 2 == 1);
        if (!(c.remaining > 0.0))
            continue;
        const std::string name = "identical stack " + std::to_string(k);
        expectReferenceBits(c, name, &same);
        Step2Case halved = c;
        for (size_t i = 2; i < halved.layers.size(); i += 3)
            halved.step1.moeBytes[i] *= 0.5;
        expectReferenceBits(halved, name + " with halved fills", &refilled);
    }
    EXPECT_EQ(same.cases, 240);
    EXPECT_GE(same.carried, 150);
    EXPECT_GE(same.binding, 100);
    EXPECT_GE(same.zeroFill, 50);
    EXPECT_GE(same.merged, 50);
    EXPECT_GE(same.cases - same.merged, 50);
    EXPECT_GE(refilled.carried, 150);

    // The non-identical stacks ExactOnSeededRandomStacks draws: most
    // raise every layer in full.
    std::mt19937_64 mixed_rng(0x9a2d17ULL);
    CarryCoverage mixed;
    for (int k = 0; mixed.cases < 200 && k < 2000; ++k) {
        const sim::ClusterSpec cluster =
            k % 2 == 0 ? sim::testbedA() : sim::testbedB();
        const auto layers = randomStack(mixed_rng, cluster);
        const LinearModel ar{cluster.allreduce.alpha, cluster.allreduce.beta,
                             1.0};
        const Step2Case c = makeCase(layers, ar, (k / 2) % 2 == 1);
        if (c.remaining > 0.0)
            expectReferenceBits(c, "random stack " + std::to_string(k),
                                &mixed);
    }
    EXPECT_EQ(mixed.cases, 200);
    EXPECT_GE(mixed.fullRaise, 150);
}

} // namespace
} // namespace fsmoe::core
