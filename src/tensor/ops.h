/**
 * @file
 * Elementwise and reduction kernels used by gates and experts.
 *
 * Every forward kernel that participates in training has a matching
 * backward kernel; the MoE layer's manual backpropagation (paper §4.4)
 * is assembled from these primitives.
 */
#ifndef FSMOE_TENSOR_OPS_H
#define FSMOE_TENSOR_OPS_H

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace fsmoe {

/** Result of a row-wise top-k selection. */
struct TopK
{
    /// Selected values, shape (rows, k), sorted descending per row.
    Tensor values;
    /// Column indices of the selected values, shape (rows, k).
    std::vector<int64_t> indices;
};

/** Row-wise softmax over the last dimension of a 2-D tensor. */
Tensor softmaxRows(const Tensor &logits);

/**
 * Backward of softmaxRows.
 *
 * @param y      Softmax output from the forward pass.
 * @param dy     Gradient w.r.t. the softmax output.
 * @return       Gradient w.r.t. the logits.
 */
Tensor softmaxRowsBackward(const Tensor &y, const Tensor &dy);

/** Row-wise top-k of a 2-D tensor (k <= columns). */
TopK topkRows(const Tensor &scores, int k);

/** Numerically stable sigmoid, elementwise. */
Tensor sigmoid(const Tensor &x);

/** Elementwise SiLU (x * sigmoid(x)), the Mixtral expert activation. */
Tensor silu(const Tensor &x);

/** Backward of SiLU given the forward input x and upstream gradient dy. */
Tensor siluBackward(const Tensor &x, const Tensor &dy);

/** Elementwise GELU (tanh approximation). */
Tensor gelu(const Tensor &x);

/** Backward of GELU given the forward input x and upstream gradient dy. */
Tensor geluBackward(const Tensor &x, const Tensor &dy);

/** Softplus ln(1+e^x), used by the GShard noisy gate. */
Tensor softplus(const Tensor &x);

/**
 * Cosine-similarity scores between every row of @p x (n,d) and every
 * row of @p w (e,d); output shape (n,e). Implements the X-MoE scoring
 * s_i = cos(W_proj I, W_g).
 */
Tensor cosineScores(const Tensor &x, const Tensor &w, float eps = 1e-12f);

/** Mean of all elements. */
float mean(const Tensor &x);

} // namespace fsmoe

#endif // FSMOE_TENSOR_OPS_H
