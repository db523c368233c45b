#include "core/profiler.h"

#include <random>

#include "base/logging.h"
#include "solver/least_squares.h"

namespace fsmoe::core {

Profiler::Profiler(const sim::ClusterSpec &spec, uint64_t seed, int runs)
    : spec_(spec), seed_(seed), runs_(runs)
{
    FSMOE_CHECK_ARG(runs >= 1, "profiler needs at least one run per point");
}

double
Profiler::measureOnce(const sim::CostCoeffs &truth, double n,
                      uint64_t sample_index) const
{
    double t = truth(n);
    if (spec_.measurementNoise > 0.0) {
        // Deterministic per-sample noise stream.
        std::mt19937_64 rng(seed_ ^ (sample_index * 0x9e3779b97f4a7c15ULL));
        std::normal_distribution<double> noise(0.0, spec_.measurementNoise);
        t *= 1.0 + noise(rng);
        if (t < 0.0)
            t = 0.0;
    }
    return t;
}

ProfileResult
Profiler::profile(ProfileOp op) const
{
    const sim::CostCoeffs *truth = nullptr;
    std::vector<double> volumes;
    if (op == ProfileOp::Gemm) {
        truth = &spec_.gemm;
        // 2^19 .. 12*2^19 work units in 2^19 steps (paper §6.2). The
        // paper's GEMM axis reaches ~3e10; scale the element counts to
        // that magnitude by treating each step as 2^19 * 4096 MACs.
        for (int i = 1; i <= 12; ++i)
            volumes.push_back(static_cast<double>(i) * (1 << 19) * 4096.0);
    } else {
        switch (op) {
          case ProfileOp::AlltoAll: truth = &spec_.alltoall; break;
          case ProfileOp::AllGather: truth = &spec_.allgather; break;
          case ProfileOp::ReduceScatter: truth = &spec_.reducescatter; break;
          case ProfileOp::AllReduce: truth = &spec_.allreduce; break;
          default: FSMOE_PANIC("unhandled profile op");
        }
        // 2^18 .. 24*2^18 float elements in 2^18 steps, 4 bytes each.
        for (int i = 1; i <= 24; ++i)
            volumes.push_back(static_cast<double>(i) * (1 << 18) * 4.0);
    }

    ProfileResult result;
    result.op = op;
    result.sizes = volumes;
    result.measured.reserve(volumes.size());
    uint64_t sample = static_cast<uint64_t>(op) * 1000003ULL;
    for (double n : volumes) {
        double sum = 0.0;
        for (int r = 0; r < runs_; ++r)
            sum += measureOnce(*truth, n, sample++);
        result.measured.push_back(sum / runs_);
    }

    auto fit = solver::fitLine(result.sizes, result.measured);
    result.model = {fit.intercept, fit.slope, fit.r2};
    return result;
}

} // namespace fsmoe::core
