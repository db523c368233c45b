/**
 * @file
 * Tests for the model zoo, workload derivation, phase times, and the
 * GPipe pipeline-parallel wrapper.
 */
#include <cstdint>

#include <gtest/gtest.h>

#include "core/moe_config.h"
#include "core/perf_model.h"
#include "model/gpipe.h"
#include "model/models.h"
#include "sim/cluster.h"

namespace fsmoe::model {
namespace {

using core::Workload;

TEST(Workload, VolumesScaleAsDerived)
{
    core::LayerShape s;
    s.batch = 4;
    s.seqLen = 1024;
    s.embed = 1024;
    s.hidden = 4096;
    s.numExperts = 8;
    s.topK = 2;
    s.capacityFactor = 1.2;
    core::ParallelConfig par;
    par.numMp = 4;
    Workload w = core::deriveWorkload(s, par);

    const double tokens_per_gpu = 4.0 * 1024.0 / 4.0;
    const double routed = 2.0 * 1.2 * tokens_per_gpu;
    EXPECT_DOUBLE_EQ(w.a2aBytes, routed * 1024.0 * 4.0);
    EXPECT_DOUBLE_EQ(w.agBytes, w.a2aBytes);
    EXPECT_DOUBLE_EQ(w.expertMacs, routed * 2.0 * 1024.0 * 4096.0);
    EXPECT_EQ(w.expertGemms, 2);

    s.ffn = core::FfnType::Mixtral;
    Workload wm = core::deriveWorkload(s, par);
    EXPECT_EQ(wm.expertGemms, 3);
    EXPECT_DOUBLE_EQ(wm.expertMacs, 1.5 * w.expertMacs);
}

TEST(WorkloadDeathTest, TokenCountOverflowIsFatalNamingBothFactors)
{
    core::LayerShape s;
    s.batch = INT64_MAX;
    s.seqLen = 1024;
    EXPECT_DEATH(s.tokens(), "batch 9223372036854775807 x seqLen 1024");
    EXPECT_DEATH(core::deriveWorkload(s, core::ParallelConfig{}),
                 "overflows int64");
    s.batch = INT64_MAX / 1024;
    EXPECT_EQ(s.tokens(), INT64_MAX / 1024 * 1024);
}

TEST(Workload, NoDropFactorActsAsUnity)
{
    core::LayerShape s;
    s.capacityFactor = -1.0; // "*"
    core::ParallelConfig par;
    Workload w = core::deriveWorkload(s, par);
    s.capacityFactor = 1.0;
    Workload w1 = core::deriveWorkload(s, par);
    EXPECT_DOUBLE_EQ(w.a2aBytes, w1.a2aBytes);
}

TEST(Workload, MpPartitionsTokensAndAttention)
{
    core::LayerShape s;
    core::ParallelConfig one, four;
    four.numMp = 4;
    Workload w1 = core::deriveWorkload(s, one);
    Workload w4 = core::deriveWorkload(s, four);
    EXPECT_DOUBLE_EQ(w4.a2aBytes * 4.0, w1.a2aBytes);
    EXPECT_DOUBLE_EQ(w4.attnMacs * 4.0, w1.attnMacs);
}

TEST(PhaseTimes, BackwardDoublesComputeKeepsComm)
{
    core::PerfModelSet models =
        core::PerfModelSet::fromCluster(sim::testbedA());
    core::LayerShape s;
    core::ParallelConfig par;
    Workload w = core::deriveWorkload(s, par);
    core::PhaseTimes f = core::forwardTimes(models, w);
    core::PhaseTimes b = core::backwardTimes(models, w);
    EXPECT_DOUBLE_EQ(f.a2a, b.a2a);
    EXPECT_DOUBLE_EQ(f.allgather, b.allgather);
    EXPECT_GT(b.experts, 1.8 * f.experts);
    EXPECT_GT(b.attention, 1.8 * f.attention);
    EXPECT_EQ(f.gradAllReduce, 0.0);
    EXPECT_GT(b.gradAllReduce, 0.0);
}

TEST(Models, SpecsMatchArchitectures)
{
    ModelSpec gpt = gpt2XlMoe(6);
    EXPECT_EQ(gpt.layer.embed, 1600);
    EXPECT_EQ(gpt.layer.ffn, core::FfnType::Simple);

    ModelSpec m7 = mixtral7B(8);
    EXPECT_EQ(m7.layer.embed, 4096);
    EXPECT_EQ(m7.layer.hidden, 14336);
    EXPECT_EQ(m7.layer.ffn, core::FfnType::Mixtral);

    ModelSpec m22 = mixtral22B(6);
    EXPECT_EQ(m22.layer.embed, 6144);
    EXPECT_EQ(m22.numLayers, 33);
}

TEST(Models, PaperParallelismRule)
{
    core::ParallelConfig a = paperParallelism(sim::testbedA());
    EXPECT_EQ(a.numMp, 8);
    EXPECT_EQ(a.numEsp, 8);
    EXPECT_EQ(a.numEp, 6);
    core::ParallelConfig b = paperParallelism(sim::testbedB());
    EXPECT_EQ(b.numMp, 4);
    EXPECT_EQ(b.numEp, 8);
    core::ParallelConfig pp = paperParallelism(sim::testbedA(), 2);
    EXPECT_EQ(pp.numEp, 3);
    EXPECT_EQ(pp.numPp, 2);
}

TEST(Models, MakeModelCostBuildsAllLayers)
{
    ModelSpec spec = mixtral7B(8, 1, 256, 7);
    core::ModelCost cost = makeModelCost(spec, sim::testbedB(),
                                         paperParallelism(sim::testbedB()));
    EXPECT_EQ(cost.layers.size(), 7u);
    EXPECT_GT(cost.layers[0].fwd.experts, 0.0);
    EXPECT_GT(cost.layers[0].bwd.gradAllReduce, 0.0);
}

TEST(Gpipe, MoreMicroBatchesAmortiseBubbles)
{
    auto sched = core::Schedule::create("fsmoe");
    ModelSpec spec = gpt2XlMoe(3, 8, 512, 8);
    sim::ClusterSpec cluster = sim::testbedA();
    GpipeResult m2 = gpipeIteration(*sched, spec, cluster, 2, 2);
    GpipeResult m8 = gpipeIteration(*sched, spec, cluster, 2, 8);
    // Per-token efficiency: fewer bubble slots per micro-batch.
    double eff2 = m2.iterationMs / 2.0;
    double eff8 = m8.iterationMs / 8.0;
    EXPECT_LT(eff8, eff2);
}

TEST(Gpipe, SingleStageMatchesPlainIteration)
{
    auto sched = core::Schedule::create("tutel");
    ModelSpec spec = gpt2XlMoe(6, 1, 512, 4);
    sim::ClusterSpec cluster = sim::testbedA();
    GpipeResult r = gpipeIteration(*sched, spec, cluster, 1, 1);
    core::ModelCost cost = makeModelCost(spec, cluster,
                                         paperParallelism(cluster));
    double plain = sched->iterationTimeMs(cost);
    EXPECT_NEAR(r.iterationMs, plain, plain * 0.01);
}

TEST(Gpipe, FsMoeStillBeatsSequentialUnderPp)
{
    ModelSpec spec = mixtral7B(3, 2, 512, 8);
    sim::ClusterSpec cluster = sim::testbedA();
    auto ds = core::Schedule::create("ds-moe");
    auto fs = core::Schedule::create("fsmoe");
    GpipeResult rds = gpipeIteration(*ds, spec, cluster, 2, 4);
    GpipeResult rfs = gpipeIteration(*fs, spec, cluster, 2, 4);
    EXPECT_LT(rfs.iterationMs, rds.iterationMs);
}

TEST(Models, DescribeMentionsKeyFields)
{
    core::LayerShape s;
    s.capacityFactor = -1.0;
    std::string d = core::describe(s);
    EXPECT_NE(d.find("f=*"), std::string::npos);
    EXPECT_NE(d.find("M=1024"), std::string::npos);
}

} // namespace
} // namespace fsmoe::model
