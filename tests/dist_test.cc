/**
 * @file
 * Unit tests for the in-process distributed runtime: collective
 * semantics, hierarchical AlltoAll equivalence, and the DP/EP/ESP rank
 * layout.
 */
#include <gtest/gtest.h>

#include "dist/communicator.h"
#include "tensor/rng.h"
#include "test_util.h"

namespace fsmoe::dist {
namespace {

/** Rank-stamped buffers so data provenance is visible in asserts. */
std::vector<Tensor>
makeBuffers(int world, int64_t rows, int64_t cols)
{
    std::vector<Tensor> bufs;
    for (int r = 0; r < world; ++r) {
        Tensor t({rows, cols});
        for (int64_t i = 0; i < t.numel(); ++i)
            t.flat(i) = static_cast<float>(r * 1000 + i);
        bufs.push_back(std::move(t));
    }
    return bufs;
}

TEST(Communicator, AllToAllSemantics)
{
    const int world = 4;
    Communicator comm(world);
    auto bufs = makeBuffers(world, 8, 2); // 4 chunks of 2 rows
    auto original = bufs;
    Group everyone = {0, 1, 2, 3};
    comm.allToAll(bufs, everyone);
    // out[d] chunk s == in[s] chunk d.
    for (int d = 0; d < world; ++d) {
        for (int s = 0; s < world; ++s) {
            for (int64_t i = 0; i < 4; ++i) {
                EXPECT_EQ(bufs[d].flat(s * 4 + i),
                          original[s].flat(d * 4 + i))
                    << "dst " << d << " src " << s;
            }
        }
    }
}

TEST(Communicator, AllToAllIsSelfInverse)
{
    const int world = 4;
    Communicator comm(world);
    auto bufs = makeBuffers(world, 8, 3);
    auto original = bufs;
    Group everyone = {0, 1, 2, 3};
    comm.allToAll(bufs, everyone);
    comm.allToAll(bufs, everyone);
    for (int r = 0; r < world; ++r)
        test::expectClose(bufs[r], original[r], 0.0f, "double AlltoAll");
}

TEST(Communicator, AllGatherConcatenatesInGroupOrder)
{
    const int world = 3;
    Communicator comm(world);
    auto bufs = makeBuffers(world, 2, 2);
    auto original = bufs;
    Group everyone = {0, 1, 2};
    comm.allGather(bufs, everyone);
    for (int r = 0; r < world; ++r) {
        EXPECT_EQ(bufs[r].size(0), 6);
        for (int s = 0; s < world; ++s)
            for (int64_t i = 0; i < 4; ++i)
                EXPECT_EQ(bufs[r].flat(s * 4 + i), original[s].flat(i));
    }
}

TEST(Communicator, ReduceScatterSumsAndSplits)
{
    const int world = 2;
    Communicator comm(world);
    std::vector<Tensor> bufs = {Tensor({4, 1}, {1, 2, 3, 4}),
                                Tensor({4, 1}, {10, 20, 30, 40})};
    Group everyone = {0, 1};
    comm.reduceScatter(bufs, everyone);
    EXPECT_EQ(bufs[0].size(0), 2);
    EXPECT_EQ(bufs[0].flat(0), 11.0f);
    EXPECT_EQ(bufs[0].flat(1), 22.0f);
    EXPECT_EQ(bufs[1].flat(0), 33.0f);
    EXPECT_EQ(bufs[1].flat(1), 44.0f);
}

TEST(Communicator, AllGatherThenReduceScatterScalesByGroup)
{
    // ReduceScatter(AllGather(x)) = |group| * x restored to shape.
    const int world = 3;
    Communicator comm(world);
    auto bufs = makeBuffers(world, 2, 2);
    auto original = bufs;
    Group everyone = {0, 1, 2};
    comm.allGather(bufs, everyone);
    comm.reduceScatter(bufs, everyone);
    for (int r = 0; r < world; ++r) {
        Tensor expect = original[r];
        expect.scale_(3.0f);
        test::expectClose(bufs[r], expect, 1e-5f, "AG+RS");
    }
}

TEST(Communicator, AllReduceSums)
{
    const int world = 3;
    Communicator comm(world);
    std::vector<Tensor> bufs = {Tensor({2}, {1, 2}), Tensor({2}, {3, 4}),
                                Tensor({2}, {5, 6})};
    comm.allReduce(bufs, {0, 1, 2});
    for (int r = 0; r < world; ++r) {
        EXPECT_EQ(bufs[r].flat(0), 9.0f);
        EXPECT_EQ(bufs[r].flat(1), 12.0f);
    }
}

TEST(Communicator, SubgroupCollectiveLeavesOthersUntouched)
{
    Communicator comm(4);
    auto bufs = makeBuffers(4, 2, 1);
    auto original = bufs;
    comm.allReduce(bufs, {0, 2});
    EXPECT_EQ(bufs[0].flat(0), original[0].flat(0) + original[2].flat(0));
    test::expectClose(bufs[1], original[1], 0.0f, "untouched rank 1");
    test::expectClose(bufs[3], original[3], 0.0f, "untouched rank 3");
}

/** Hierarchical AlltoAll must equal the direct algorithm bit-exactly. */
class HierA2aTest
    : public ::testing::TestWithParam<std::tuple<A2aAlgo, int, int>>
{
};

TEST_P(HierA2aTest, MatchesDirect)
{
    auto [algo, nodes, rpn] = GetParam();
    const int world = nodes * rpn;
    Communicator comm(world);
    Rng rng(42);
    std::vector<Tensor> bufs, direct;
    for (int r = 0; r < world; ++r)
        bufs.push_back(rng.normalTensor({static_cast<int64_t>(world * 2),
                                         3}));
    direct = bufs;

    Group everyone;
    for (int r = 0; r < world; ++r)
        everyone.push_back(r);
    comm.allToAll(direct, everyone, A2aAlgo::NcclDirect);
    comm.allToAll(bufs, everyone, algo, rpn);
    for (int r = 0; r < world; ++r)
        test::expectClose(bufs[r], direct[r], 0.0f, "hierarchical a2a");
}

std::string
hierA2aName(const ::testing::TestParamInfo<std::tuple<A2aAlgo, int, int>>
                &info)
{
    std::string name =
        std::get<0>(info.param) == A2aAlgo::Hier1D ? "h1d" : "h2d";
    return name + "_n" + std::to_string(std::get<1>(info.param)) + "_g" +
           std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, HierA2aTest,
    ::testing::Combine(::testing::Values(A2aAlgo::Hier1D, A2aAlgo::Hier2D),
                       ::testing::Values(2, 3, 4),
                       ::testing::Values(1, 2, 4)),
    hierA2aName);

TEST(ParallelLayout, RankMappingRoundTrips)
{
    ParallelLayout layout(3, 4);
    EXPECT_EQ(layout.worldSize(), 12);
    for (int ep = 0; ep < 3; ++ep) {
        for (int esp = 0; esp < 4; ++esp) {
            int r = layout.rankOf(ep, esp);
            EXPECT_EQ(layout.epOf(r), ep);
            EXPECT_EQ(layout.espOf(r), esp);
        }
    }
}

TEST(ParallelLayout, GroupsPartitionTheWorld)
{
    ParallelLayout layout(2, 3);
    std::vector<int> seen(layout.worldSize(), 0);
    for (int esp = 0; esp < 3; ++esp)
        for (int r : layout.epGroup(esp))
            seen[r]++;
    for (int c : seen)
        EXPECT_EQ(c, 1);
    std::fill(seen.begin(), seen.end(), 0);
    for (int ep = 0; ep < 2; ++ep)
        for (int r : layout.espGroup(ep))
            seen[r]++;
    for (int c : seen)
        EXPECT_EQ(c, 1);
}

TEST(ParallelLayout, EspGroupIsContiguousNode)
{
    ParallelLayout layout(2, 4);
    Group node0 = layout.espGroup(0);
    ASSERT_EQ(node0.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(node0[i], i);
}

} // namespace
} // namespace fsmoe::dist
