#include "core/moe_config.h"

#include <algorithm>
#include <sstream>

#include "base/logging.h"

namespace fsmoe::core {

int
ffnGemmCount(FfnType t)
{
    return t == FfnType::Mixtral ? 3 : 2;
}

int64_t
LayerShape::tokens() const
{
    int64_t n = 0;
    if (__builtin_mul_overflow(batch, seqLen, &n))
        FSMOE_FATAL("invalid layer shape: batch ", batch, " x seqLen ",
                    seqLen, " overflows int64");
    return n;
}

Workload
deriveWorkload(const LayerShape &shape, const ParallelConfig &par)
{
    FSMOE_CHECK_ARG(shape.batch >= 1 && shape.seqLen >= 1 &&
                        shape.embed >= 1 && shape.hidden >= 1,
                    "degenerate layer shape");
    FSMOE_CHECK_ARG(shape.topK >= 1 && shape.topK <= shape.numExperts,
                    "top-k must lie in [1, E]");
    FSMOE_CHECK_ARG(par.numMp >= 1 && par.numEsp >= 1 && par.numEp >= 1,
                    "parallel group sizes must be positive");

    const double s = static_cast<double>(shape.tokens()) / par.numMp;
    // f = "*" (no drops) behaves like the expected balanced load k*S/E
    // per expert, i.e. an effective factor of 1.
    const double f = shape.capacityFactor > 0.0 ? shape.capacityFactor : 1.0;
    const double m = static_cast<double>(shape.embed);
    const double h = static_cast<double>(shape.hidden);
    const double l = static_cast<double>(shape.seqLen);
    const double routed = shape.topK * f * s; // token-expert pairs per GPU

    Workload w;
    w.a2aBytes = routed * m * Workload::kElemBytes;
    w.agBytes = w.a2aBytes;
    w.rsBytes = w.a2aBytes;
    w.expertGemms = ffnGemmCount(shape.ffn);
    w.expertMacs = routed * w.expertGemms * m * h;
    w.attnMacs = static_cast<double>(shape.tokens()) *
                 (4.0 * m * m + 2.0 * l * m) / par.numMp;
    w.routingMacs = s * m * static_cast<double>(shape.numExperts);
    w.orderBytes = routed * m * Workload::kElemBytes;
    w.gradBytes =
        (4.0 * m * m / par.numMp + m * shape.numExperts) *
        Workload::kElemBytes;
    return w;
}

std::string
describe(const LayerShape &shape)
{
    std::ostringstream oss;
    oss << "B=" << shape.batch << " L=" << shape.seqLen << " M="
        << shape.embed << " H=" << shape.hidden << " E=" << shape.numExperts
        << " k=" << shape.topK << " f=";
    if (shape.capacityFactor > 0.0)
        oss << shape.capacityFactor;
    else
        oss << "*";
    oss << " heads=" << shape.numHeads << " ffn="
        << (shape.ffn == FfnType::Mixtral ? "mixtral" : "simple");
    return oss.str();
}

} // namespace fsmoe::core
