/**
 * @file
 * Online profiler: microbenchmarks tasks and fits performance models.
 *
 * Paper §3.2/§6.2: before training, FSMoE measures each task type over
 * a sweep of input sizes (communication: 2^18..24*2^18 float elements;
 * GEMM: 2^19..12*2^19 work units), averages five runs per point, and
 * fits t = alpha + beta*n by least squares. Here the "hardware" being
 * measured is a simulated cluster, optionally with multiplicative
 * measurement noise, so the tests can verify that fitting recovers the
 * ground-truth coefficients and that r^2 matches the paper's >0.998.
 */
#ifndef FSMOE_CORE_PROFILER_H
#define FSMOE_CORE_PROFILER_H

#include <cstdint>
#include <vector>

#include "core/perf_model.h"
#include "sim/cluster.h"

namespace fsmoe::core {

/** Task classes the profiler can microbenchmark. */
enum class ProfileOp
{
    AlltoAll,
    AllGather,
    ReduceScatter,
    AllReduce,
    Gemm
};

/** One profiled sweep plus its fitted model. */
struct ProfileResult
{
    ProfileOp op;
    LinearModel model;            ///< Least-squares fit with r^2.
    std::vector<double> sizes;    ///< Volumes (bytes or MACs).
    std::vector<double> measured; ///< Mean measured ms per volume.
};

/**
 * Profiles a (simulated) cluster. Deterministic given the seed.
 */
class Profiler
{
  public:
    /**
     * @param spec  Cluster whose ground-truth models act as hardware.
     * @param seed  Seed for measurement noise.
     * @param runs  Runs averaged per sample point (paper uses 5).
     */
    explicit Profiler(const sim::ClusterSpec &spec, uint64_t seed = 42,
                      int runs = 5);

    /** Microbenchmark one task class over the paper's size sweep. */
    ProfileResult profile(ProfileOp op) const;

  private:
    /** One noisy "measurement" of ground truth at volume @p n. */
    double measureOnce(const sim::CostCoeffs &truth, double n,
                       uint64_t sample_index) const;

    const sim::ClusterSpec spec_;
    uint64_t seed_;
    int runs_;
};

} // namespace fsmoe::core

#endif // FSMOE_CORE_PROFILER_H
