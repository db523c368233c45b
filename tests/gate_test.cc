/**
 * @file
 * Tests for the four routing functions: assignment structure,
 * determinism, replication, and exact backward passes validated
 * against finite differences of a synthetic loss; plus the
 * load-balancing auxiliary loss.
 */
#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/gate.h"
#include "test_util.h"

namespace fsmoe::core {
namespace {

constexpr int64_t kTokens = 12;
constexpr int64_t kEmbed = 32;
constexpr int kExperts = 4;
constexpr int kTop = 2;

class GateTest : public ::testing::TestWithParam<GateKind>
{
  protected:
    std::unique_ptr<GateBase>
    make(uint64_t seed = 7)
    {
        Rng rng(seed);
        return makeGate(GetParam(), kEmbed, kExperts, kTop, rng);
    }
};

TEST_P(GateTest, AssignmentsReferenceValidTokensAndExperts)
{
    auto gate = make();
    Rng rng(21);
    Tensor x = rng.normalTensor({kTokens, kEmbed});
    GateResult res = gate->forward(x);
    ASSERT_FALSE(res.assignments.empty());
    for (const Assignment &a : res.assignments) {
        EXPECT_GE(a.token, 0);
        EXPECT_LT(a.token, kTokens);
        EXPECT_GE(a.expert, 0);
        EXPECT_LT(a.expert, kExperts);
        EXPECT_TRUE(std::isfinite(a.weight));
    }
}

TEST_P(GateTest, TokenChoiceEmitsExactlyTopKPerToken)
{
    if (GetParam() == GateKind::ExpertChoice)
        GTEST_SKIP() << "expert-choice routes per expert";
    auto gate = make();
    Rng rng(22);
    Tensor x = rng.normalTensor({kTokens, kEmbed});
    GateResult res = gate->forward(x);
    ASSERT_EQ(res.assignments.size(),
              static_cast<size_t>(kTokens * kTop));
    for (int64_t t = 0; t < kTokens; ++t) {
        std::set<int> experts;
        for (int j = 0; j < kTop; ++j) {
            const Assignment &a = res.assignments[t * kTop + j];
            EXPECT_EQ(a.token, t);
            experts.insert(a.expert);
        }
        EXPECT_EQ(experts.size(), static_cast<size_t>(kTop))
            << "token routed twice to one expert";
    }
}

TEST_P(GateTest, ExpertChoiceEmitsCapacityPerExpert)
{
    if (GetParam() != GateKind::ExpertChoice)
        GTEST_SKIP();
    auto gate = make();
    Rng rng(23);
    Tensor x = rng.normalTensor({kTokens, kEmbed});
    GateResult res = gate->forward(x);
    const int64_t cap = kTokens * kTop / kExperts;
    ASSERT_EQ(res.assignments.size(), static_cast<size_t>(cap * kExperts));
    std::vector<int> per_expert(kExperts, 0);
    for (const Assignment &a : res.assignments)
        per_expert[a.expert]++;
    for (int c : per_expert)
        EXPECT_EQ(c, cap);
}

TEST_P(GateTest, SoftmaxWeightsSumToOne)
{
    if (GetParam() != GateKind::GShard && GetParam() != GateKind::XMoe)
        GTEST_SKIP() << "only softmax gates normalise per token";
    auto gate = make();
    Rng rng(24);
    Tensor x = rng.normalTensor({kTokens, kEmbed});
    GateResult res = gate->forward(x);
    for (int64_t t = 0; t < kTokens; ++t) {
        double sum = 0.0;
        for (int j = 0; j < kTop; ++j)
            sum += res.assignments[t * kTop + j].weight;
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST_P(GateTest, DeterministicAcrossReplicas)
{
    auto g1 = make(5);
    auto g2 = make(5);
    Rng rng(25);
    Tensor x = rng.normalTensor({kTokens, kEmbed});
    GateResult r1 = g1->forward(x);
    GateResult r2 = g2->forward(x);
    ASSERT_EQ(r1.assignments.size(), r2.assignments.size());
    for (size_t i = 0; i < r1.assignments.size(); ++i) {
        EXPECT_EQ(r1.assignments[i].token, r2.assignments[i].token);
        EXPECT_EQ(r1.assignments[i].expert, r2.assignments[i].expert);
        EXPECT_EQ(r1.assignments[i].weight, r2.assignments[i].weight);
    }
}

/**
 * Finite-difference check of the full gate backward: loss =
 * sum_i c_i * weight_i for fixed random coefficients c. Routing
 * decisions are discrete, so tiny perturbations keep the same top-k
 * set and the weight path stays differentiable.
 */
TEST_P(GateTest, InputGradientMatchesFiniteDifference)
{
    auto gate = make(9);
    Rng rng(26);
    Tensor x = rng.normalTensor({kTokens, kEmbed});
    GateResult res = gate->forward(x);
    std::vector<float> coeff(res.assignments.size());
    Rng crng(27);
    for (float &c : coeff)
        c = crng.normal();

    gate->zeroGrad();
    Tensor dx = gate->backward(coeff);

    auto loss = [&]() {
        GateResult r = gate->forward(x);
        double s = 0.0;
        for (size_t i = 0; i < r.assignments.size(); ++i)
            s += coeff[i] * r.assignments[i].weight;
        return s;
    };
    // Re-run the forward the analytic pass consumed before probing.
    test::expectGradMatches(x, dx, loss, 5e-3, 3e-2, 24);
}

TEST_P(GateTest, WeightGradientMatchesFiniteDifference)
{
    auto gate = make(11);
    Rng rng(28);
    Tensor x = rng.normalTensor({kTokens, kEmbed});
    GateResult res = gate->forward(x);
    std::vector<float> coeff(res.assignments.size());
    Rng crng(29);
    for (float &c : coeff)
        c = crng.normal();

    gate->zeroGrad();
    gate->forward(x);
    gate->backward(coeff);

    auto loss = [&]() {
        GateResult r = gate->forward(x);
        double s = 0.0;
        for (size_t i = 0; i < r.assignments.size(); ++i)
            s += coeff[i] * r.assignments[i].weight;
        return s;
    };
    // Routing is discrete: a weight perturbation can flip the top-k
    // selection, at which point the loss is genuinely non-smooth and
    // finite differences are meaningless. Probe only points where the
    // (token, expert) assignment set is perturbation-stable.
    auto signature = [&]() {
        GateResult r = gate->forward(x);
        std::vector<int64_t> sig;
        for (const core::Assignment &a : r.assignments)
            sig.push_back(a.token * 1000 + a.expert);
        return sig;
    };
    const std::vector<int64_t> base_sig = signature();
    auto params = gate->params();
    auto grads = gate->grads();
    ASSERT_EQ(params.size(), grads.size());
    const double eps = 1e-3;
    int probed = 0;
    for (size_t pi = 0; pi < params.size(); ++pi) {
        Tensor &w = *params[pi];
        const Tensor &g = *grads[pi];
        int64_t stride = std::max<int64_t>(1, w.numel() / 40);
        for (int64_t i = 0; i < w.numel(); i += stride) {
            float saved = w.flat(i);
            w.flat(i) = saved + static_cast<float>(eps);
            bool stable = signature() == base_sig;
            double up = loss();
            w.flat(i) = saved - static_cast<float>(eps);
            stable = stable && signature() == base_sig;
            double down = loss();
            w.flat(i) = saved;
            if (!stable)
                continue; // selection flipped: not differentiable here
            probed++;
            double num = (up - down) / (2.0 * eps);
            double ana = g.flat(i);
            double scale = std::max({1.0, std::fabs(num), std::fabs(ana)});
            EXPECT_NEAR(ana, num, 5e-2 * scale)
                << "param " << pi << " flat index " << i;
        }
    }
    EXPECT_GT(probed, 2) << "too few perturbation-stable probe points";
}

TEST_P(GateTest, ZeroGradClearsAccumulation)
{
    auto gate = make(13);
    Rng rng(30);
    Tensor x = rng.normalTensor({kTokens, kEmbed});
    GateResult res = gate->forward(x);
    std::vector<float> coeff(res.assignments.size(), 1.0f);
    gate->backward(coeff);
    bool any_nonzero = false;
    for (Tensor *g : gate->grads())
        for (int64_t i = 0; i < g->numel(); ++i)
            any_nonzero |= g->flat(i) != 0.0f;
    EXPECT_TRUE(any_nonzero);
    gate->zeroGrad();
    for (Tensor *g : gate->grads())
        for (int64_t i = 0; i < g->numel(); ++i)
            EXPECT_EQ(g->flat(i), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    AllGates, GateTest,
    ::testing::Values(GateKind::GShard, GateKind::Sigmoid, GateKind::XMoe,
                      GateKind::ExpertChoice),
    [](const ::testing::TestParamInfo<GateKind> &info) {
        switch (info.param) {
          case GateKind::GShard: return "gshard";
          case GateKind::Sigmoid: return "sigmoid";
          case GateKind::XMoe: return "xmoe";
          case GateKind::ExpertChoice: return "expert_choice";
          default: return "unknown";
        }
    });

TEST(GateFactory, NamesMatchKinds)
{
    Rng rng(1);
    EXPECT_EQ(makeGate(GateKind::GShard, 8, 2, 1, rng)->name(), "gshard");
    EXPECT_EQ(makeGate(GateKind::Sigmoid, 8, 2, 1, rng)->name(),
              "sigmoid");
    EXPECT_EQ(makeGate(GateKind::XMoe, 8, 2, 1, rng)->name(), "x-moe");
    EXPECT_EQ(makeGate(GateKind::ExpertChoice, 8, 2, 1, rng)->name(),
              "expert-choice");
    EXPECT_STREQ(gateKindName(GateKind::XMoe), "x-moe");
}

TEST(AuxLoss, BalancedRoutingMinimisesLoss)
{
    // Uniform routing: every expert gets the same count and mass.
    GateResult balanced, skewed;
    const int e = 4;
    const int n = 8;
    for (int64_t t = 0; t < n; ++t) {
        balanced.assignments.push_back(
            {t, static_cast<int>(t % e), 0.5f});
        skewed.assignments.push_back({t, 0, 0.5f});
    }
    AuxLossResult lb = loadBalanceLoss(balanced, e, n);
    AuxLossResult ls = loadBalanceLoss(skewed, e, n);
    EXPECT_LT(lb.loss, ls.loss);
    // Skewed loss is E times the balanced one for one-hot routing.
    EXPECT_NEAR(ls.loss / lb.loss, e, 1e-6);
}

TEST(AuxLoss, GradientPushesAwayFromHotExperts)
{
    GateResult routing;
    // Expert 0 takes 3 tokens, expert 1 takes 1.
    routing.assignments = {
        {0, 0, 0.9f}, {1, 0, 0.8f}, {2, 0, 0.7f}, {3, 1, 0.6f}};
    AuxLossResult res = loadBalanceLoss(routing, 2, 4);
    // Hot expert's weights receive a larger positive gradient (they
    // get pushed down harder when descending the aux loss).
    EXPECT_GT(res.dWeights[0], res.dWeights[3]);
}

} // namespace
} // namespace fsmoe::core
