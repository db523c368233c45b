#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace fsmoe {

namespace {

/// Rows/cols of a 2-D tensor with a shape check.
std::pair<int64_t, int64_t>
rowsCols(const Tensor &x, const char *what)
{
    FSMOE_CHECK_ARG(x.dim() == 2, what, " expects a 2-D tensor, got ",
                    x.shapeString());
    return {x.size(0), x.size(1)};
}

float
sigmoidScalar(float v)
{
    if (v >= 0.0f) {
        float e = std::exp(-v);
        return 1.0f / (1.0f + e);
    }
    float e = std::exp(v);
    return e / (1.0f + e);
}

} // namespace

Tensor
softmaxRows(const Tensor &logits)
{
    auto [rows, cols] = rowsCols(logits, "softmaxRows");
    Tensor out({rows, cols});
    for (int64_t r = 0; r < rows; ++r) {
        const float *in = logits.data() + r * cols;
        float *o = out.data() + r * cols;
        float mx = *std::max_element(in, in + cols);
        // -inf rows (all masked) become uniform zeros rather than NaN.
        if (!std::isfinite(mx)) {
            std::fill(o, o + cols, 0.0f);
            continue;
        }
        float sum = 0.0f;
        for (int64_t c = 0; c < cols; ++c) {
            float e = std::exp(in[c] - mx);
            o[c] = e;
            sum += e;
        }
        for (int64_t c = 0; c < cols; ++c)
            o[c] /= sum;
    }
    return out;
}

Tensor
softmaxRowsBackward(const Tensor &y, const Tensor &dy)
{
    FSMOE_CHECK_ARG(y.sameShape(dy), "softmax backward shape mismatch");
    auto [rows, cols] = rowsCols(y, "softmaxRowsBackward");
    Tensor dx({rows, cols});
    for (int64_t r = 0; r < rows; ++r) {
        const float *yr = y.data() + r * cols;
        const float *gr = dy.data() + r * cols;
        float *dr = dx.data() + r * cols;
        float dot = 0.0f;
        for (int64_t c = 0; c < cols; ++c)
            dot += yr[c] * gr[c];
        for (int64_t c = 0; c < cols; ++c)
            dr[c] = yr[c] * (gr[c] - dot);
    }
    return dx;
}

TopK
topkRows(const Tensor &scores, int k)
{
    auto [rows, cols] = rowsCols(scores, "topkRows");
    FSMOE_CHECK_ARG(k >= 1 && k <= cols, "top-k k=", k, " out of range for ",
                    cols, " columns");
    TopK out{Tensor({rows, k}), std::vector<int64_t>(rows * k)};
    std::vector<int64_t> order(cols);
    for (int64_t r = 0; r < rows; ++r) {
        const float *in = scores.data() + r * cols;
        std::iota(order.begin(), order.end(), 0);
        std::partial_sort(order.begin(), order.begin() + k, order.end(),
                          [&](int64_t a, int64_t b) {
                              if (in[a] != in[b])
                                  return in[a] > in[b];
                              return a < b; // deterministic tie-break
                          });
        for (int j = 0; j < k; ++j) {
            out.values.at(r, j) = in[order[j]];
            out.indices[r * k + j] = order[j];
        }
    }
    return out;
}

Tensor
sigmoid(const Tensor &x)
{
    Tensor out = x;
    for (int64_t i = 0; i < out.numel(); ++i)
        out.flat(i) = sigmoidScalar(out.flat(i));
    return out;
}

Tensor
silu(const Tensor &x)
{
    Tensor out = x;
    for (int64_t i = 0; i < out.numel(); ++i) {
        float v = out.flat(i);
        out.flat(i) = v * sigmoidScalar(v);
    }
    return out;
}

Tensor
siluBackward(const Tensor &x, const Tensor &dy)
{
    FSMOE_CHECK_ARG(x.sameShape(dy), "silu backward shape mismatch");
    Tensor dx = dy;
    for (int64_t i = 0; i < dx.numel(); ++i) {
        float v = x.flat(i);
        float s = sigmoidScalar(v);
        dx.flat(i) *= s * (1.0f + v * (1.0f - s));
    }
    return dx;
}

Tensor
gelu(const Tensor &x)
{
    constexpr float kC = 0.7978845608028654f; // sqrt(2/pi)
    Tensor out = x;
    for (int64_t i = 0; i < out.numel(); ++i) {
        float v = out.flat(i);
        float t = std::tanh(kC * (v + 0.044715f * v * v * v));
        out.flat(i) = 0.5f * v * (1.0f + t);
    }
    return out;
}

Tensor
geluBackward(const Tensor &x, const Tensor &dy)
{
    FSMOE_CHECK_ARG(x.sameShape(dy), "gelu backward shape mismatch");
    constexpr float kC = 0.7978845608028654f;
    Tensor dx = dy;
    for (int64_t i = 0; i < dx.numel(); ++i) {
        float v = x.flat(i);
        float u = kC * (v + 0.044715f * v * v * v);
        float t = std::tanh(u);
        float du = kC * (1.0f + 3.0f * 0.044715f * v * v);
        float d = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
        dx.flat(i) *= d;
    }
    return dx;
}

Tensor
softplus(const Tensor &x)
{
    Tensor out = x;
    for (int64_t i = 0; i < out.numel(); ++i) {
        float v = out.flat(i);
        // log1p(exp(v)) with overflow guard.
        out.flat(i) = v > 20.0f ? v : std::log1p(std::exp(v));
    }
    return out;
}

Tensor
cosineScores(const Tensor &x, const Tensor &w, float eps)
{
    auto [n, d] = rowsCols(x, "cosineScores");
    auto [e, d2] = rowsCols(w, "cosineScores");
    FSMOE_CHECK_ARG(d == d2, "cosineScores dimension mismatch: ", d, " vs ",
                    d2);
    Tensor out({n, e});
    std::vector<float> wn(e);
    for (int64_t j = 0; j < e; ++j) {
        const float *wr = w.data() + j * d;
        float ss = 0.0f;
        for (int64_t c = 0; c < d; ++c)
            ss += wr[c] * wr[c];
        wn[j] = std::sqrt(ss);
    }
    for (int64_t i = 0; i < n; ++i) {
        const float *xr = x.data() + i * d;
        float ss = 0.0f;
        for (int64_t c = 0; c < d; ++c)
            ss += xr[c] * xr[c];
        float xn = std::sqrt(ss);
        for (int64_t j = 0; j < e; ++j) {
            const float *wr = w.data() + j * d;
            float dot = 0.0f;
            for (int64_t c = 0; c < d; ++c)
                dot += xr[c] * wr[c];
            out.at(i, j) = dot / std::max(xn * wn[j], eps);
        }
    }
    return out;
}

float
mean(const Tensor &x)
{
    FSMOE_CHECK_ARG(x.numel() > 0, "mean of empty tensor");
    double s = 0.0;
    for (int64_t i = 0; i < x.numel(); ++i)
        s += x.flat(i);
    return static_cast<float>(s / static_cast<double>(x.numel()));
}

} // namespace fsmoe
