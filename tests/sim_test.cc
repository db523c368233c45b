/**
 * @file
 * Unit tests for the discrete-event simulator: dependency handling,
 * stream FIFO semantics, exclusive links, readiness arbitration, the
 * per-op accounting, duration tallies and cut-off runs, and the testbed
 * specifications.
 */
#include <array>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "base/stats.h"
#include "core/schedules/schedule.h"
#include "core/schedules/schedule_registry.h"
#include "model/models.h"
#include "runtime/scenario.h"
#include "sim/cluster.h"
#include "sim/simulator.h"
#include "sim/task_graph.h"
#include "sim/trace.h"
#include "test_util.h"

namespace fsmoe::sim {
namespace {

TEST(TaskGraph, AddAndQuery)
{
    TaskGraph g;
    TaskId a = g.addTask("a", OpType::Experts, Link::Compute, 0, 1.0);
    TaskId b = g.addTask("b", OpType::AlltoAll, Link::InterNode, 1, 2.0,
                         {a});
    EXPECT_EQ(g.size(), 2u);
    EXPECT_EQ(g.deps(b).size(), 1u);
    EXPECT_EQ(g.deps(b)[0], a);
    EXPECT_EQ(g.deps(a).size(), 0u);
    EXPECT_EQ(g.numDeps(), 1u);
    EXPECT_EQ(g.taskName(a), "a");
    EXPECT_EQ(g.numStreams(), 2);
}

TEST(TaskGraph, DurationTallyMatchesEveryBuiltinSchedulesGraph)
{
    for (const ClusterSpec &cluster : {testbedA(), testbedB()}) {
        core::LayerShape shape;
        shape.batch = 2;
        shape.seqLen = 512;
        shape.embed = 2048;
        shape.hidden = 3 * 2048;
        shape.numExperts = cluster.numNodes;
        const core::ParallelConfig par = model::paperParallelism(cluster);
        core::ModelCost cost;
        cost.models = core::PerfModelSet::fromCluster(cluster);
        for (int i = 0; i < 3; ++i)
            cost.layers.push_back(
                core::makeLayerCost(cost.models, shape, par));

        for (const std::string &name :
             core::ScheduleRegistry::instance().names()) {
            const TaskGraph built =
                core::Schedule::create(name)->build(cost);
            // addTask folds a task into every lane of a tally alike.
            DurationTally tally(3);
            test::replayGraph(built, tally);
            const std::string what = cluster.name + " " + name;
            EXPECT_EQ(tally.size(), built.size()) << what;
            // Both keep the id-order left fold of each link's tasks.
            std::array<double, static_cast<size_t>(Link::NumLinks)> fold{};
            for (const Task &t : built.tasks())
                fold[static_cast<size_t>(t.link)] += t.duration;
            for (size_t li = 0; li < fold.size(); ++li) {
                const Link link = static_cast<Link>(li);
                EXPECT_TRUE(
                    test::sameBits(built.linkDurationSum(link), fold[li]))
                    << what << " " << linkName(link);
                for (size_t lane = 0; lane < tally.numLanes(); ++lane)
                    EXPECT_TRUE(test::sameBits(
                        tally.lane(lane).linkDurationSum(link), fold[li]))
                        << what << " " << linkName(link) << " lane " << lane;
            }
            for (size_t lane = 0; lane < tally.numLanes(); ++lane) {
                EXPECT_FALSE(tally.lane(lane).rejected()) << what;
                EXPECT_EQ(tally.lane(lane).size(), built.size()) << what;
                EXPECT_EQ(tally.lane(lane).numStreams(), built.numStreams())
                    << what;
                EXPECT_TRUE(test::sameBits(tally.lane(lane).releaseBound(),
                                           tally.lane(0).releaseBound()))
                    << what;
            }
        }
    }
}

TEST(TaskGraph, DurationTallyRejectsWhatAGraphRejects)
{
    // The graph fails with addTask's message; a tally never fails, and
    // marks every lane rejected instead.
    const auto fresh = [] {
        TaskGraph g;
        g.addTask("a", OpType::Experts, Link::Compute, 0, 1.0);
        return g;
    };
    EXPECT_DEATH(fresh().addTask("neg", OpType::Other, Link::Compute, 0,
                                 -1.0),
                 "negative duration");
    EXPECT_DEATH(fresh().addTask("fwd", OpType::Other, Link::Compute, 0,
                                 1.0, {1}),
                 "depends on unknown task 1");
    EXPECT_DEATH(fresh().addTask("self", OpType::Other, Link::Compute, 0,
                                 1.0, {-1}),
                 "depends on unknown task -1");
    const auto rejects = [](auto add) {
        DurationTally tally(3);
        tally.addTask("a", OpType::Experts, Link::Compute, 0, 1.0);
        add(tally);
        for (size_t lane = 0; lane < tally.numLanes(); ++lane)
            if (!tally.lane(lane).rejected())
                return false;
        return true;
    };
    EXPECT_FALSE(rejects([](DurationTally &t) {
        t.addTask("ok", OpType::Other, Link::Compute, 0, 1.0, {0});
    }));
    EXPECT_TRUE(rejects([](DurationTally &t) {
        t.addTask("neg", OpType::Other, Link::Compute, 0, -1.0);
    }));
    EXPECT_TRUE(rejects([](DurationTally &t) {
        t.addTask("nan", OpType::Other, Link::Compute, 0,
                  std::numeric_limits<double>::quiet_NaN());
    }));
    EXPECT_TRUE(rejects([](DurationTally &t) {
        t.addTask("s", OpType::Other, Link::Compute, -1, 1.0);
    }));
    EXPECT_TRUE(rejects([](DurationTally &t) {
        t.addTask("fwd", OpType::Other, Link::Compute, 0, 1.0, {1});
    }));
    EXPECT_TRUE(rejects([](DurationTally &t) {
        t.addTask("self", OpType::Other, Link::Compute, 0, 1.0, {-1});
    }));
}

TEST(TaskGraph, ReleaseBoundCountsEachLinksWorkFromItsRelease)
{
    // b: 100 ms inter-node, no dependencies; x: 10 ms compute; a: 1 ms
    // inter-node after x. b runs at 0..100 and a, ready at 10, at
    // 100..101.
    TaskGraph built;
    built.addTask("b", OpType::Other, Link::InterNode, 0, 100.0);
    const TaskId x = built.addTask("x", OpType::Other, Link::Compute, 1, 10.0);
    built.addTask("a", OpType::Other, Link::InterNode, 2, 1.0, {x});
    ASSERT_EQ(Simulator{}.run(built).makespan, 101.0);

    // In release order: a is released at x's finish, 10, and the link
    // still owes b's work before it, so the bound is 0 + 101.
    DurationTally tally;
    test::replayGraph(built, tally);
    EXPECT_EQ(tally.lane(0).finish(2), 11.0);
    EXPECT_EQ(tally.lane(0).finish(x), 0.0); // no longer the last task
    EXPECT_EQ(tally.lane(0).releaseBound(), 101.0);
    EXPECT_LT(Simulator::makespanLowerBound(tally), 101.0);
    EXPECT_GT(Simulator::makespanLowerBound(tally), 100.0);

    // Out of release order, b (released at 0) follows a (at 10): b's
    // work may run before a's release, so it starts a new run. Counting
    // it after a's release would claim 10 + 101.
    TaskGraph reordered;
    const TaskId x2 =
        reordered.addTask("x", OpType::Other, Link::Compute, 1, 10.0);
    reordered.addTask("a", OpType::Other, Link::InterNode, 2, 1.0, {x2});
    reordered.addTask("b", OpType::Other, Link::InterNode, 0, 100.0);
    ASSERT_EQ(Simulator{}.run(reordered).makespan, 101.0);
    DurationTally late;
    test::replayGraph(reordered, late);
    EXPECT_EQ(late.lane(0).releaseBound(), 100.0);

    // A chain head's finish is known to the next task and the bound.
    late.lane(0).chain(1, 50.0);
    EXPECT_EQ(late.lane(0).finish(1), 50.0);
    EXPECT_EQ(late.lane(0).releaseBound(), 100.0);
    late.lane(0).chain(1, 150.0);
    EXPECT_EQ(late.lane(0).releaseBound(), 150.0);
}

TEST(Simulator, CutRunsCountTheWorkTheyDid)
{
    // A 10-task chain alternating two links, 1 ms each: every link sum
    // is 5 ms, so the link-sum bound cannot cut at 7.5 ms. Task t
    // starts at t and ends at t + 1. After the completion at 5 ms,
    // task 5 runs on the inter-node link until 6 ms, which still has
    // two 1 ms tasks (7 and 9) to run after it: the remaining-work
    // bound is 6 + 2 = 8 >= 7.5 ms, so the run stops there, before
    // any completion reaches the cutoff. (At 4 ms the same bound on
    // task 4's link was 5 + 2 = 7.)
    TaskGraph g;
    TaskId prev = -1;
    for (int i = 0; i < 10; ++i) {
        std::vector<TaskId> deps;
        if (prev >= 0)
            deps.push_back(prev);
        prev = g.addTask({"t", i}, OpType::Other,
                         i % 2 ? Link::InterNode : Link::Compute, 0, 1.0,
                         deps);
    }
    const auto value = [](const char *name) {
        return stats::counter(name).value();
    };
    const char *const kNames[] = {"sim.runs", "sim.runs.cut",
                                  "sim.tasks.executed",
                                  "sim.events.processed", "sim.heap.pops"};
    const auto snapshot = [&] {
        std::array<uint64_t, 5> v{};
        for (size_t i = 0; i < v.size(); ++i)
            v[i] = value(kNames[i]);
        return v;
    };
    const Simulator s;
    auto before = snapshot();
    EXPECT_EQ(s.makespanBelow(g, 7.5),
              std::numeric_limits<double>::infinity());
    auto after = snapshot();
    EXPECT_EQ(after[0] - before[0], 1u); // one run,
    EXPECT_EQ(after[1] - before[1], 1u); // cut,
    EXPECT_EQ(after[2] - before[2], 5u); // after 5 tasks finished,
    EXPECT_EQ(after[3] - before[3], 5u); // on the 5th popped event,
    EXPECT_EQ(after[4] - before[4], 6u); // with 6 tasks started.

    // Cut by the link bound: no event is processed at all.
    before = snapshot();
    EXPECT_EQ(s.makespanBelow(g, 4.0),
              std::numeric_limits<double>::infinity());
    after = snapshot();
    EXPECT_EQ(after[1] - before[1], 1u);
    EXPECT_EQ(after[2] - before[2], 0u);
    EXPECT_EQ(after[3] - before[3], 0u);

    // A run that finishes below the cutoff is a plain run.
    before = snapshot();
    EXPECT_EQ(s.makespanBelow(g, 10.5), 10.0);
    after = snapshot();
    EXPECT_EQ(after[1] - before[1], 0u);
    EXPECT_EQ(after[2] - before[2], 10u);

    // A link that idles: a 2 ms compute task, then four 1 ms inter-node
    // tasks in a chain after it (makespan 6 ms). The link sums (2 and
    // 4 ms) miss the inter-node link's idle first 2 ms, so neither the
    // link-sum bound nor, until the completion at 5 ms, the popped
    // events reach a 5 ms cutoff. The remaining-work bound does at the
    // first completion: the inter-node link is busy until 3 ms with
    // 3 ms still to run after that.
    TaskGraph idle;
    prev = idle.addTask("a", OpType::Other, Link::Compute, 0, 2.0);
    for (int i = 0; i < 4; ++i)
        prev = idle.addTask({"b", i}, OpType::Other, Link::InterNode, 1,
                            1.0, {prev});
    ASSERT_EQ(s.run(idle).makespan, 6.0);
    ASSERT_LT(Simulator::makespanLowerBound(idle), 5.0);
    before = snapshot();
    EXPECT_EQ(s.makespanBelow(idle, 5.0),
              std::numeric_limits<double>::infinity());
    after = snapshot();
    EXPECT_EQ(after[1] - before[1], 1u);
    EXPECT_EQ(after[2] - before[2], 1u); // only a finished,
    EXPECT_EQ(after[3] - before[3], 1u); // at the first event,
    EXPECT_EQ(after[4] - before[4], 2u); // with a and b0 started.
}

TEST(SimulatorDeathTest, MakespanBelowRejectsANanCutoff)
{
    // A NaN compares false with everything: unchecked, every run would
    // go uncut and then "lose".
    TaskGraph g;
    g.addTask("a", OpType::Experts, Link::Compute, 0, 1.0);
    EXPECT_DEATH(Simulator{}.makespanBelow(
                     g, std::numeric_limits<double>::quiet_NaN()),
                 "makespan cutoff is NaN");
}

TEST(Simulator, EmptyGraph)
{
    Simulator s;
    SimResult r = s.run(TaskGraph{});
    EXPECT_EQ(r.makespan, 0.0);
}

TEST(Simulator, SequentialChainSums)
{
    TaskGraph g;
    TaskId prev = -1;
    for (int i = 0; i < 5; ++i) {
        std::vector<TaskId> deps;
        if (prev >= 0)
            deps.push_back(prev);
        prev = g.addTask("t", OpType::Experts, Link::Compute, 0, 2.0,
                         deps);
    }
    SimResult r = Simulator{}.run(g);
    EXPECT_DOUBLE_EQ(r.makespan, 10.0);
}

TEST(Simulator, IndependentLinksRunConcurrently)
{
    TaskGraph g;
    g.addTask("c", OpType::Experts, Link::Compute, 0, 3.0);
    g.addTask("n", OpType::AlltoAll, Link::InterNode, 1, 4.0);
    g.addTask("i", OpType::AllGather, Link::IntraNode, 2, 5.0);
    SimResult r = Simulator{}.run(g);
    EXPECT_DOUBLE_EQ(r.makespan, 5.0);
}

TEST(Simulator, SameLinkSerializesAcrossStreams)
{
    TaskGraph g;
    g.addTask("a", OpType::AlltoAll, Link::InterNode, 0, 3.0);
    g.addTask("b", OpType::GradAllReduce, Link::InterNode, 1, 4.0);
    SimResult r = Simulator{}.run(g);
    EXPECT_DOUBLE_EQ(r.makespan, 7.0); // never concurrent
}

TEST(Simulator, StreamFifoOrderHolds)
{
    // Second task on the stream is ready first but must wait for the
    // stream head, which depends on a slow compute task.
    TaskGraph g;
    TaskId slow = g.addTask("slow", OpType::Experts, Link::Compute, 0, 5.0);
    TaskId head = g.addTask("head", OpType::AlltoAll, Link::InterNode, 1,
                            1.0, {slow});
    g.addTask("tail", OpType::AlltoAll, Link::InterNode, 1, 1.0);
    SimResult r = Simulator{}.run(g);
    EXPECT_DOUBLE_EQ(r.trace[head].start, 5.0);
    EXPECT_DOUBLE_EQ(r.trace[2].start, 6.0); // FIFO behind the head
    EXPECT_DOUBLE_EQ(r.makespan, 7.0);
}

TEST(Simulator, ReadinessArbitrationPicksEarliestReady)
{
    TaskGraph g;
    TaskId gate_a = g.addTask("ga", OpType::Experts, Link::Compute, 0, 1.0);
    TaskId gate_b = g.addTask("gb", OpType::Experts, Link::Compute, 0, 2.0);
    // Two inter-node tasks on different streams; a becomes ready at 1,
    // b at 3 (compute serial: gb ends at 3).
    TaskId a = g.addTask("a", OpType::AlltoAll, Link::InterNode, 1, 10.0,
                         {gate_a});
    TaskId b = g.addTask("b", OpType::AlltoAll, Link::InterNode, 2, 1.0,
                         {gate_b});
    SimResult r = Simulator{}.run(g);
    EXPECT_DOUBLE_EQ(r.trace[a].start, 1.0);
    EXPECT_DOUBLE_EQ(r.trace[b].start, 11.0);
}

TEST(Simulator, DiamondDependency)
{
    TaskGraph g;
    TaskId src = g.addTask("s", OpType::Experts, Link::Compute, 0, 1.0);
    TaskId l = g.addTask("l", OpType::AlltoAll, Link::InterNode, 1, 2.0,
                         {src});
    TaskId rgt = g.addTask("r", OpType::AllGather, Link::IntraNode, 2, 3.0,
                           {src});
    TaskId sink = g.addTask("k", OpType::Experts, Link::Compute, 0, 1.0,
                            {l, rgt});
    SimResult res = Simulator{}.run(g);
    EXPECT_DOUBLE_EQ(res.trace[sink].start, 4.0);
    EXPECT_DOUBLE_EQ(res.makespan, 5.0);
}

TEST(Simulator, OpTimeAccounting)
{
    TaskGraph g;
    g.addTask("a", OpType::AlltoAll, Link::InterNode, 0, 2.0);
    g.addTask("b", OpType::AlltoAll, Link::InterNode, 0, 3.0);
    g.addTask("e", OpType::Experts, Link::Compute, 1, 4.0);
    SimResult r = Simulator{}.run(g);
    EXPECT_DOUBLE_EQ(r.timeOf(OpType::AlltoAll), 5.0);
    EXPECT_DOUBLE_EQ(r.timeOf(OpType::Experts), 4.0);
    EXPECT_DOUBLE_EQ(r.timeOf(OpType::Routing), 0.0);
}

TEST(Simulator, ZeroDurationBarrier)
{
    TaskGraph g;
    TaskId a = g.addTask("a", OpType::Experts, Link::Compute, 0, 2.0);
    TaskId b = g.addTask("b", OpType::AlltoAll, Link::InterNode, 1, 3.0);
    TaskId bar = g.addTask("bar", OpType::Other, Link::Compute, 0, 0.0,
                           {a, b});
    SimResult r = Simulator{}.run(g);
    EXPECT_DOUBLE_EQ(r.trace[bar].start, 3.0);
    EXPECT_DOUBLE_EQ(r.makespan, 3.0);
}

TEST(Simulator, PipelineOverlapMatchesClosedForm)
{
    // r chunks: a2a (inter) then expert (compute), expert slower.
    // Closed form (paper case 2 shape): t = t_a2a + r * t_exp.
    const int r = 4;
    const double t_a2a = 1.0, t_exp = 2.0;
    TaskGraph g;
    std::vector<TaskId> disp(r);
    for (int i = 0; i < r; ++i)
        disp[i] = g.addTask("d", OpType::AlltoAll, Link::InterNode, 1,
                            t_a2a);
    for (int i = 0; i < r; ++i)
        g.addTask("e", OpType::Experts, Link::Compute, 0, t_exp,
                  {disp[i]});
    SimResult res = Simulator{}.run(g);
    EXPECT_DOUBLE_EQ(res.makespan, t_a2a + r * t_exp);
}

TEST(Simulator, GanttRendersAllStreams)
{
    TaskGraph g;
    g.addTask("alpha", OpType::Experts, Link::Compute, 0, 1.0);
    g.addTask("beta", OpType::AlltoAll, Link::InterNode, 1, 2.0);
    SimResult r = Simulator{}.run(g);
    std::string chart = Simulator::gantt(g, r, 40);
    EXPECT_NE(chart.find("stream 0"), std::string::npos);
    EXPECT_NE(chart.find("stream 1"), std::string::npos);
    EXPECT_NE(chart.find('a'), std::string::npos);
    EXPECT_NE(chart.find('b'), std::string::npos);
}

TEST(Simulator, GanttClampsEveryTaskIntoTheAxis)
{
    // A short task whose whole extent lies at the very end of the
    // span: its start maps to the last column, where unclamped
    // truncation used to let it vanish. Every positive-duration task
    // must paint at least one cell, and rows must stay exactly
    // `columns` wide.
    const int columns = 20;
    TaskGraph g;
    TaskId bulk = g.addTask("b", OpType::Experts, Link::Compute, 0, 100.0);
    g.addTask("z", OpType::AlltoAll, Link::InterNode, 1, 1e-9, {bulk});
    SimResult r = Simulator{}.run(g);
    std::string chart = Simulator::gantt(g, r, columns);

    EXPECT_NE(chart.find('b'), std::string::npos);
    EXPECT_NE(chart.find('z'), std::string::npos) << chart;
    // The tail task renders in the final column of its row.
    const size_t row1 = chart.find("stream 1 |");
    ASSERT_NE(row1, std::string::npos);
    EXPECT_EQ(chart[row1 + 10 + columns - 1], 'z') << chart;
    EXPECT_EQ(chart[row1 + 10 + columns], '|') << chart;
}

TEST(Cluster, TestbedSpecsMatchPaper)
{
    ClusterSpec a = testbedA();
    EXPECT_EQ(a.numNodes, 6);
    EXPECT_EQ(a.gpusPerNode, 8);
    EXPECT_EQ(a.totalGpus(), 48);
    EXPECT_DOUBLE_EQ(a.gemm.alpha, 4.26e-2);
    EXPECT_DOUBLE_EQ(a.alltoall.beta, 2.21e-7);

    ClusterSpec b = testbedB();
    EXPECT_EQ(b.totalGpus(), 32);
    EXPECT_DOUBLE_EQ(b.allreduce.beta, 5.99e-7);
}

TEST(Cluster, CostCoeffsEvaluateLinearly)
{
    CostCoeffs c{1.0, 2.0};
    EXPECT_DOUBLE_EQ(c(3.0), 7.0);
}

TEST(Cluster, ScaledTestbedAdjustsInterNodeOnly)
{
    const runtime::ScenarioRegistry &reg =
        runtime::ScenarioRegistry::instance();
    ClusterSpec base = testbedA();
    ClusterSpec scaled = reg.makeCluster("testbedA?nodes=2");
    EXPECT_EQ(scaled.numNodes, 2);
    EXPECT_LT(scaled.alltoall.beta, base.alltoall.beta);
    EXPECT_LT(scaled.allreduce.beta, base.allreduce.beta);
    EXPECT_DOUBLE_EQ(scaled.allgather.beta, base.allgather.beta);
    EXPECT_DOUBLE_EQ(scaled.gemm.beta, base.gemm.beta);
    // Scaling back to 6 nodes is the identity, bit for bit.
    ClusterSpec same = reg.makeCluster("testbedA?nodes=6");
    EXPECT_EQ(same.numNodes, base.numNodes);
    EXPECT_EQ(same.gpusPerNode, base.gpusPerNode);
    for (const auto member :
         {&ClusterSpec::gemm, &ClusterSpec::alltoall, &ClusterSpec::allgather,
          &ClusterSpec::reducescatter, &ClusterSpec::allreduce}) {
        EXPECT_EQ(std::memcmp(&(same.*member), &(base.*member),
                              sizeof(CostCoeffs)),
                  0);
    }
}

} // namespace
} // namespace fsmoe::sim
