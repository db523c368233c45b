/**
 * @file
 * Tests for online profiling (§3.2/§6.2): the least-squares fits must
 * recover the cluster's ground-truth coefficients, with the paper's
 * r^2 quality even under measurement noise.
 */
#include <gtest/gtest.h>

#include "core/profiler.h"
#include "sim/cluster.h"

namespace fsmoe::core {
namespace {

TEST(Profiler, ExactRecoveryWithoutNoise)
{
    sim::ClusterSpec cluster = sim::testbedA();
    Profiler profiler(cluster);
    ProfileResult a2a = profiler.profile(ProfileOp::AlltoAll);
    EXPECT_NEAR(a2a.model.alpha, cluster.alltoall.alpha, 1e-9);
    EXPECT_NEAR(a2a.model.beta, cluster.alltoall.beta, 1e-15);
    EXPECT_NEAR(a2a.model.r2, 1.0, 1e-12);

    ProfileResult gemm = profiler.profile(ProfileOp::Gemm);
    EXPECT_NEAR(gemm.model.alpha, cluster.gemm.alpha, 1e-9);
    EXPECT_NEAR(gemm.model.beta, cluster.gemm.beta, 1e-18);
}

TEST(Profiler, SweepSizesMatchPaperProtocol)
{
    Profiler profiler(sim::testbedB());
    ProfileResult comm = profiler.profile(ProfileOp::AllGather);
    ASSERT_EQ(comm.sizes.size(), 24u);
    EXPECT_DOUBLE_EQ(comm.sizes.front(), (1 << 18) * 4.0);
    EXPECT_DOUBLE_EQ(comm.sizes.back(), 24.0 * (1 << 18) * 4.0);
    ProfileResult gemm = profiler.profile(ProfileOp::Gemm);
    ASSERT_EQ(gemm.sizes.size(), 12u);
}

TEST(Profiler, NoisyMeasurementsStillFitWell)
{
    sim::ClusterSpec cluster = sim::testbedB();
    cluster.measurementNoise = 0.01; // 1% relative noise
    Profiler profiler(cluster, /*seed=*/7, /*runs=*/5);
    for (ProfileOp op : {ProfileOp::AlltoAll, ProfileOp::AllGather,
                         ProfileOp::ReduceScatter, ProfileOp::AllReduce}) {
        ProfileResult res = profiler.profile(op);
        EXPECT_GT(res.model.r2, 0.998)
            << "op " << static_cast<int>(op);
        EXPECT_GT(res.model.beta, 0.0);
    }
}

TEST(Profiler, ProfileAllBundlesFiveModels)
{
    sim::ClusterSpec cluster = sim::testbedA();
    Profiler profiler(cluster);
    const struct
    {
        ProfileOp op;
        double truthBeta;
        double tolerance;
    } cases[] = {
        {ProfileOp::AlltoAll, cluster.alltoall.beta, 1e-15},
        {ProfileOp::AllGather, cluster.allgather.beta, 1e-15},
        {ProfileOp::ReduceScatter, cluster.reducescatter.beta, 1e-15},
        {ProfileOp::AllReduce, cluster.allreduce.beta, 1e-15},
        {ProfileOp::Gemm, cluster.gemm.beta, 1e-18},
    };
    for (const auto &c : cases)
        EXPECT_NEAR(profiler.profile(c.op).model.beta, c.truthBeta,
                    c.tolerance)
            << "op " << static_cast<int>(c.op);
}

TEST(Profiler, DeterministicGivenSeed)
{
    sim::ClusterSpec cluster = sim::testbedB();
    cluster.measurementNoise = 0.05;
    Profiler p1(cluster, 11), p2(cluster, 11);
    ProfileResult a = p1.profile(ProfileOp::AllReduce);
    ProfileResult b = p2.profile(ProfileOp::AllReduce);
    EXPECT_EQ(a.model.alpha, b.model.alpha);
    EXPECT_EQ(a.model.beta, b.model.beta);
}

TEST(LinearModel, InverseRoundTrips)
{
    LinearModel m{0.5, 2e-7, 1.0};
    double n = 1.5e6;
    EXPECT_NEAR(m.inverse(m.predict(n)), n, 1e-6);
    LinearModel flat{1.0, 0.0, 1.0};
    EXPECT_EQ(flat.inverse(5.0), 0.0);
}

} // namespace
} // namespace fsmoe::core
