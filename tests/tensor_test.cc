/**
 * @file
 * Unit tests for the tensor substrate: Tensor, GEMM, elementwise ops,
 * activation forward/backward pairs, top-k and the RNG.
 */
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "test_util.h"

namespace fsmoe {
namespace {

TEST(Tensor, ConstructsZeroFilled)
{
    Tensor t({2, 3});
    EXPECT_EQ(t.numel(), 6);
    EXPECT_EQ(t.dim(), 2);
    for (int64_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t.flat(i), 0.0f);
}

TEST(Tensor, ShapeAccessors)
{
    Tensor t({4, 5, 6});
    EXPECT_EQ(t.size(0), 4);
    EXPECT_EQ(t.size(2), 6);
    EXPECT_EQ(t.size(-1), 6);
    EXPECT_EQ(t.size(-3), 4);
    EXPECT_EQ(t.shapeString(), "[4, 5, 6]");
}

TEST(Tensor, ElementAccessRowMajor)
{
    Tensor t({2, 3});
    t.at(1, 2) = 7.0f;
    EXPECT_EQ(t.flat(5), 7.0f);
    Tensor u({2, 2, 2});
    u.at(1, 0, 1) = 3.0f;
    EXPECT_EQ(u.flat(5), 3.0f);
}

TEST(Tensor, ReshapePreservesDataAndInfersExtent)
{
    Tensor t({2, 6});
    std::iota(t.data(), t.data() + 12, 0.0f);
    Tensor r = t.reshape({3, -1});
    EXPECT_EQ(r.size(0), 3);
    EXPECT_EQ(r.size(1), 4);
    EXPECT_EQ(r.flat(11), 11.0f);
}

TEST(Tensor, SliceDim0CopiesRows)
{
    Tensor t({4, 2});
    std::iota(t.data(), t.data() + 8, 0.0f);
    Tensor s = t.sliceDim0(1, 3);
    EXPECT_EQ(s.size(0), 2);
    EXPECT_EQ(s.at(0, 0), 2.0f);
    EXPECT_EQ(s.at(1, 1), 5.0f);
}

TEST(Tensor, ElementwiseHelpers)
{
    Tensor a({2, 2}, {1, 2, 3, 4});
    Tensor b({2, 2}, {4, 3, 2, 1});
    EXPECT_EQ(add(a, b).flat(0), 5.0f);
    EXPECT_EQ(sub(a, b).flat(3), 3.0f);
    EXPECT_EQ(mul(a, b).flat(1), 6.0f);
    EXPECT_EQ(maxAbsDiff(a, b), 3.0f);
    EXPECT_TRUE(allClose(a, a));
    EXPECT_FALSE(allClose(a, b));
}

TEST(Tensor, FullAndScale)
{
    Tensor t = Tensor::full({3}, 2.0f);
    t.scale_(1.5f);
    EXPECT_EQ(t.flat(2), 3.0f);
}

TEST(Gemm, MatchesManualSmallCase)
{
    Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
    Tensor c = matmul(a, b);
    EXPECT_EQ(c.at(0, 0), 58.0f);
    EXPECT_EQ(c.at(0, 1), 64.0f);
    EXPECT_EQ(c.at(1, 0), 139.0f);
    EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(Gemm, TransposeVariantsAgree)
{
    Rng rng(7);
    Tensor a = rng.normalTensor({5, 4});
    Tensor b = rng.normalTensor({4, 6});
    Tensor ref = matmul(a, b);

    // A^T stored transposed.
    Tensor at({4, 5});
    for (int64_t i = 0; i < 5; ++i)
        for (int64_t j = 0; j < 4; ++j)
            at.at(j, i) = a.at(i, j);
    test::expectClose(matmul(at, b, Trans::Yes, Trans::No), ref, 1e-5f,
                      "A^T B");

    Tensor bt({6, 4});
    for (int64_t i = 0; i < 4; ++i)
        for (int64_t j = 0; j < 6; ++j)
            bt.at(j, i) = b.at(i, j);
    test::expectClose(matmul(a, bt, Trans::No, Trans::Yes), ref, 1e-5f,
                      "A B^T");
    test::expectClose(matmul(at, bt, Trans::Yes, Trans::Yes), ref, 1e-5f,
                      "A^T B^T");
}

TEST(Gemm, AlphaBetaAccumulate)
{
    Tensor a({1, 2}, {1, 2});
    Tensor b({2, 1}, {3, 4});
    Tensor c({1, 1}, {10});
    gemm(a, Trans::No, b, Trans::No, c, 2.0f, 1.0f);
    EXPECT_EQ(c.flat(0), 10.0f + 2.0f * 11.0f);
}

TEST(Gemm, LargeBlockedMatchesNaive)
{
    Rng rng(11);
    Tensor a = rng.normalTensor({70, 90});
    Tensor b = rng.normalTensor({90, 65});
    Tensor c = matmul(a, b);
    // Naive reference on a few probe entries.
    for (int64_t i : {0, 33, 69}) {
        for (int64_t j : {0, 31, 64}) {
            double acc = 0.0;
            for (int64_t k = 0; k < 90; ++k)
                acc += a.at(i, k) * b.at(k, j);
            EXPECT_NEAR(c.at(i, j), acc, 1e-3);
        }
    }
}

TEST(Ops, SoftmaxRowsSumToOne)
{
    Rng rng(3);
    Tensor x = rng.normalTensor({6, 9});
    Tensor y = softmaxRows(x);
    for (int64_t r = 0; r < 6; ++r) {
        double sum = 0.0;
        for (int64_t c = 0; c < 9; ++c) {
            sum += y.at(r, c);
            EXPECT_GT(y.at(r, c), 0.0f);
        }
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Ops, SoftmaxHandlesMaskedRows)
{
    Tensor x({1, 3});
    x.fill(-std::numeric_limits<float>::infinity());
    Tensor y = softmaxRows(x);
    for (int64_t c = 0; c < 3; ++c)
        EXPECT_EQ(y.flat(c), 0.0f);
}

TEST(Ops, SoftmaxBackwardMatchesFiniteDifference)
{
    Rng rng(5);
    Tensor x = rng.normalTensor({3, 5});
    Tensor dy = rng.normalTensor({3, 5});
    Tensor y = softmaxRows(x);
    Tensor dx = softmaxRowsBackward(y, dy);
    auto loss = [&]() {
        Tensor out = softmaxRows(x);
        double s = 0.0;
        for (int64_t i = 0; i < out.numel(); ++i)
            s += out.flat(i) * dy.flat(i);
        return s;
    };
    test::expectGradMatches(x, dx, loss, 1e-3, 1e-2);
}

TEST(Ops, TopkSelectsLargestDescending)
{
    Tensor x({2, 4}, {0.1f, 0.9f, 0.5f, 0.3f, 4.0f, 1.0f, 3.0f, 2.0f});
    TopK top = topkRows(x, 2);
    EXPECT_EQ(top.indices[0], 1);
    EXPECT_EQ(top.indices[1], 2);
    EXPECT_EQ(top.values.at(0, 0), 0.9f);
    EXPECT_EQ(top.indices[2], 0);
    EXPECT_EQ(top.indices[3], 2);
}

TEST(Ops, TopkDeterministicTieBreak)
{
    Tensor x({1, 4}, {1.0f, 1.0f, 1.0f, 1.0f});
    TopK top = topkRows(x, 2);
    EXPECT_EQ(top.indices[0], 0);
    EXPECT_EQ(top.indices[1], 1);
}

struct ActivationCase
{
    const char *name;
    Tensor (*fwd)(const Tensor &);
    Tensor (*bwd)(const Tensor &, const Tensor &);
};

/**
 * The library has no sigmoid backward (its gates only run forward), so
 * the sigmoid case checks the forward against the analytic
 * derivative y(1 - y).
 */
Tensor
sigmoidGrad(const Tensor &x, const Tensor &dy)
{
    const Tensor y = sigmoid(x);
    Tensor dx = dy;
    for (int64_t i = 0; i < dx.numel(); ++i)
        dx.flat(i) *= y.flat(i) * (1.0f - y.flat(i));
    return dx;
}

class ActivationGradTest : public ::testing::TestWithParam<ActivationCase>
{
};

TEST_P(ActivationGradTest, BackwardMatchesFiniteDifference)
{
    const ActivationCase &ac = GetParam();
    Rng rng(13);
    Tensor x = rng.normalTensor({4, 7});
    Tensor dy = rng.normalTensor({4, 7});
    Tensor dx = ac.bwd(x, dy);
    auto loss = [&]() {
        Tensor y = ac.fwd(x);
        double s = 0.0;
        for (int64_t i = 0; i < y.numel(); ++i)
            s += y.flat(i) * dy.flat(i);
        return s;
    };
    test::expectGradMatches(x, dx, loss, 1e-3, 2e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Activations, ActivationGradTest,
    ::testing::Values(ActivationCase{"silu", silu, siluBackward},
                      ActivationCase{"gelu", gelu, geluBackward},
                      ActivationCase{"sigmoid", sigmoid, sigmoidGrad}),
    [](const ::testing::TestParamInfo<ActivationCase> &info) {
        return info.param.name;
    });

TEST(Ops, SoftplusMatchesDefinition)
{
    Tensor x({1, 3}, {-2.0f, 0.0f, 30.0f});
    Tensor y = softplus(x);
    EXPECT_NEAR(y.flat(0), std::log1p(std::exp(-2.0)), 1e-6);
    EXPECT_NEAR(y.flat(1), std::log(2.0), 1e-6);
    EXPECT_NEAR(y.flat(2), 30.0, 1e-4);
}

TEST(Ops, CosineScoresInUnitRange)
{
    Rng rng(19);
    Tensor x = rng.normalTensor({6, 10});
    Tensor w = rng.normalTensor({4, 10});
    Tensor s = cosineScores(x, w);
    for (int64_t i = 0; i < s.numel(); ++i) {
        EXPECT_LE(s.flat(i), 1.0f + 1e-5f);
        EXPECT_GE(s.flat(i), -1.0f - 1e-5f);
    }
}

TEST(Ops, CosineScoresSelfIsOne)
{
    Rng rng(23);
    Tensor w = rng.normalTensor({3, 6});
    Tensor s = cosineScores(w, w);
    for (int64_t i = 0; i < 3; ++i)
        EXPECT_NEAR(s.at(i, i), 1.0f, 1e-5f);
}

TEST(Ops, MeanOfAllElements)
{
    Tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
    EXPECT_NEAR(mean(x), 3.5f, 1e-6f);
}

TEST(Rng, DeterministicGivenSeed)
{
    Rng a(99), b(99);
    Tensor ta = a.normalTensor({4, 4});
    Tensor tb = b.normalTensor({4, 4});
    test::expectClose(ta, tb, 0.0f, "same-seed tensors");
}

TEST(Rng, UniformRespectsBounds)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        float v = rng.uniform(2.0f, 3.0f);
        EXPECT_GE(v, 2.0f);
        EXPECT_LT(v, 3.0f);
    }
}

TEST(Rng, NormalMomentsRoughlyCorrect)
{
    Rng rng(2);
    Tensor t = rng.normalTensor({10000}, 1.0f, 2.0f);
    double m = mean(t);
    EXPECT_NEAR(m, 1.0, 0.1);
    double var = 0.0;
    for (int64_t i = 0; i < t.numel(); ++i)
        var += (t.flat(i) - m) * (t.flat(i) - m);
    var /= t.numel();
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

} // namespace
} // namespace fsmoe
