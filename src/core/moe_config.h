/**
 * @file
 * Layer shapes, parallelism configuration, and workload volumes.
 *
 * This header turns a configured MoE transformer layer (paper Table 4
 * notation: B, L, M, H, E, k, f, heads, ffn type) plus a parallelism
 * layout (N_DP, N_MP, N_EP, N_ESP, N_PP) into the per-GPU communication
 * volumes (bytes) and computation workloads (multiply-accumulates) that
 * feed the performance models of §4.1.
 */
#ifndef FSMOE_CORE_MOE_CONFIG_H
#define FSMOE_CORE_MOE_CONFIG_H

#include <cstdint>
#include <string>

namespace fsmoe::core {

/** Expert feed-forward architecture (paper Table 4 "ffn-type"). */
enum class FfnType
{
    Simple,  ///< Two dense layers (M,H),(H,M) — the GPT-2 style expert.
    Mixtral  ///< SwiGLU: three matrices (M,H),(M,H),(H,M).
};

/** Number of GEMMs in one expert forward pass. */
int ffnGemmCount(FfnType t);

/** Shape of one configured attention + MoE transformer layer. */
struct LayerShape
{
    int64_t batch = 4;        ///< B: samples per GPU.
    int64_t seqLen = 1024;    ///< L: tokens per sample.
    int64_t embed = 1024;     ///< M: token embedding size.
    int64_t hidden = 4096;    ///< H: expert hidden size.
    int64_t numExperts = 8;   ///< E: total experts.
    int topK = 2;             ///< k: experts chosen per token.
    double capacityFactor = 1.2; ///< f; <= 0 means "*" (no token drops).
    int numHeads = 16;        ///< Attention heads.
    FfnType ffn = FfnType::Simple;

    /**
     * Tokens entering the layer per DP replica (B*L). Fatal, naming
     * both factors, when the product overflows int64.
     */
    int64_t tokens() const;
};

/** Hybrid-parallelism group sizes (paper Table 1). */
struct ParallelConfig
{
    int numDp = 1;  ///< Workers per DP group.
    int numMp = 1;  ///< Workers per MP group (= GPUs per node here).
    int numEp = 1;  ///< Workers per EP group (= nodes here).
    int numEsp = 1; ///< Workers per ESP group (= numMp in the paper's
                    ///< common scenario, §4).
    int numPp = 1;  ///< Pipeline-parallel stages.

    int totalGpus() const { return numEp * numEsp * numPp; }
};

/**
 * Per-GPU task volumes for one MoE transformer layer, in the units the
 * performance models consume: bytes for communication, MACs for
 * computation.
 */
struct Workload
{
    double a2aBytes = 0.0;     ///< n_a2a: AlltoAll dispatch (== combine).
    double agBytes = 0.0;      ///< n_ag: ESP-AllGather.
    double rsBytes = 0.0;      ///< n_rs: ESP-ReduceScatter.
    double expertMacs = 0.0;   ///< n_exp: expert FFN multiply-accumulates.
    int expertGemms = 2;       ///< GEMM launches per expert chunk (scales
                               ///< the alpha term, paper §4.1).
    double attnMacs = 0.0;     ///< Attention compute per GPU.
    double routingMacs = 0.0;  ///< Gating compute per GPU.
    double orderBytes = 0.0;   ///< (I-)Order data movement per GPU.
    double gradBytes = 0.0;    ///< n_grad: dense gradient bytes this
                               ///< layer contributes to Gradient-AllReduce.

    /// Bytes per tensor element (fp32 everywhere, as in the testbeds).
    static constexpr double kElemBytes = 4.0;
};

/**
 * Derive per-GPU volumes from shape and parallelism.
 *
 * Derivations (token count per GPU S = B*L/N_MP after the MP
 * ReduceScatter; capacity T = k*f*S/E per expert):
 *  - a2aBytes   = k*f*S*M*4: the full (E,T,M) dispatch layout.
 *  - agBytes    = rsBytes = a2aBytes: the same activations make one
 *    intra-node round trip for expert sharding.
 *  - expertMacs = k*f*S * g * M * H where g = GEMMs per expert; the
 *    ESP sharding gathers N_ESP x tokens but shards H by N_ESP, so the
 *    per-GPU MAC count is invariant.
 *  - attnMacs   = B*L*(4*M*M + 2*L*M)/N_MP (QKV+output projections plus
 *    score/value matmuls, head-partitioned).
 *  - routingMacs= S*M*E (gate projection).
 *  - gradBytes  = dense parameter bytes per GPU: attention 4*M*M/N_MP
 *    plus gate M*E (expert weights are unique per EP rank and need no
 *    DP AllReduce in this layout).
 */
Workload deriveWorkload(const LayerShape &shape, const ParallelConfig &par);

/** Human-readable one-line description of a shape. */
std::string describe(const LayerShape &shape);

} // namespace fsmoe::core

#endif // FSMOE_CORE_MOE_CONFIG_H
