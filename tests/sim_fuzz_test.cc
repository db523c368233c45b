/**
 * @file
 * Equivalence fuzzing of the simulator against the retained naive
 * reference (tests/sim_reference.h).
 *
 * The production inner loop maintains per-link candidate sets
 * incrementally; the reference rescans every stream per link per
 * event. Both implement the same machine model, so on ANY graph they
 * must agree *bit-exactly* — makespan, per-op and per-link busy times,
 * and the full per-task trace. The fuzzer exercises the corners that
 * matter for that claim: zero-duration barriers, priority classes,
 * deep FIFO streams, wide fan-in, and simultaneous completions; wide
 * graphs (9-64 streams) push a link's candidate set past the size the
 * simulator scans, into its heap; a further test runs every registered
 * schedule's real graph through both engines.
 * The cutoff tests hold Simulator::makespanBelow and runBelow to run()
 * on the same graphs, and the link-sum and remaining-work lower bounds
 * to the makespan under rounding, on random DAGs and on adversarial
 * ones: idle links, start order unlike id order, durations spanning
 * 40 binades.
 */
#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/schedules/schedule.h"
#include "core/schedules/schedule_registry.h"
#include "model/models.h"
#include "sim/cluster.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "sim_reference.h"
#include "test_util.h"

namespace fsmoe::sim {
namespace {

/**
 * A random DAG shaped to stress the arbitration paths: random streams
 * and links, ~10% zero-duration tasks, ~25% background-priority tasks,
 * up to 3 backward dependencies each, and quantised durations so that
 * equal readiness times (the id tie-break) actually occur. The stream
 * count is drawn from [@p min_streams, @p max_streams].
 */
TaskGraph
randomDag(std::mt19937 &rng, int min_streams = 1, int max_streams = 8)
{
    std::uniform_int_distribution<int> n_dist(2, 160);
    std::uniform_int_distribution<int> stream_count_dist(min_streams,
                                                         max_streams);
    const int n = n_dist(rng);
    const int num_streams = stream_count_dist(rng);

    std::uniform_int_distribution<int> stream_dist(0, num_streams - 1);
    std::uniform_int_distribution<int> link_dist(
        0, static_cast<int>(Link::NumLinks) - 1);
    std::uniform_int_distribution<int> op_dist(
        0, static_cast<int>(OpType::NumOpTypes) - 1);
    std::uniform_int_distribution<int> pct(0, 99);
    std::uniform_int_distribution<int> quantum(1, 40);
    std::uniform_int_distribution<int> dep_count_dist(0, 3);

    TaskGraph g;
    g.reserve(n, 3 * n);
    std::vector<TaskId> deps;
    for (int i = 0; i < n; ++i) {
        deps.clear();
        if (i > 0) {
            std::uniform_int_distribution<TaskId> dep_dist(0, i - 1);
            int k = dep_count_dist(rng);
            for (int d = 0; d < k; ++d) {
                TaskId cand = dep_dist(rng);
                if (std::find(deps.begin(), deps.end(), cand) == deps.end())
                    deps.push_back(cand);
            }
        }
        // Durations on a 0.25 ms grid force readiness-time ties.
        const double duration =
            pct(rng) < 10 ? 0.0 : 0.25 * quantum(rng);
        const int priority = pct(rng) < 25 ? 1 : 0;
        g.addTask({"t", i}, static_cast<OpType>(op_dist(rng)),
                  static_cast<Link>(link_dist(rng)), stream_dist(rng),
                  duration, deps, priority);
    }
    return g;
}

/** Three identical layers on @p cluster: the sweep's graph shapes. */
core::ModelCost
scheduleCost(const sim::ClusterSpec &cluster)
{
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
        cost.layers.push_back(core::makeLayerCost(cost.models, shape, par));
    return cost;
}

TEST(SimFuzz, MatchesNaiveReferenceOnRandomDags)
{
    constexpr int kSeeds = 120;
    Simulator simulator;
    for (int seed = 0; seed < kSeeds; ++seed) {
        std::mt19937 rng(0xf5013e5u + static_cast<unsigned>(seed));
        TaskGraph g = randomDag(rng);
        SimResult fast = simulator.run(g);
        SimResult ref = referenceRun(g);
        test::expectIdentical(g, fast, ref, "seed " + std::to_string(seed));
        if (::testing::Test::HasFailure())
            FAIL() << "first divergence at seed " << seed << " ("
                   << g.size() << " tasks, " << g.numStreams()
                   << " streams)";
    }
}

TEST(SimFuzz, MatchesNaiveReferenceOnScheduleGraphs)
{
    // Real graphs from every registered schedule plugin, both
    // testbeds: the exact shapes the sweep hot path simulates.
    for (const sim::ClusterSpec &cluster : {testbedA(), testbedB()}) {
        const core::ModelCost cost = scheduleCost(cluster);

        for (const std::string &name :
             core::ScheduleRegistry::instance().names()) {
            TaskGraph graph = core::Schedule::create(name)->build(cost);
            SimResult fast = Simulator{}.run(graph);
            SimResult ref = referenceRun(graph);
            test::expectIdentical(graph, fast, ref, name);
        }
    }
}

// ------------------------------------------------------------ cutoffs

constexpr double kInf = std::numeric_limits<double>::infinity();

/** The largest remaining-work bounds over a replayed run's states. */
struct RemainingWorkBounds
{
    double bound = 0.0;    ///< Simulator::remainingWorkBound.
    double unshrunk = 0.0; ///< busy_until + (link sum - started), bare.
};

/**
 * Replays @p result's trace of @p g: after the last completion at each
 * completion time T, per link, the durations started by T summed in
 * start order, and max(T, the link's last finish so far). These are
 * states the simulator's cut check sees.
 */
RemainingWorkBounds
replayRemainingWork(const TaskGraph &g, const SimResult &result)
{
    std::vector<TaskId> by_start(g.size());
    for (size_t i = 0; i < by_start.size(); ++i)
        by_start[i] = static_cast<TaskId>(i);
    std::stable_sort(by_start.begin(), by_start.end(),
                     [&](TaskId a, TaskId b) {
                         return result.trace[a].start < result.trace[b].start;
                     });
    std::vector<double> times;
    for (const TaskTrace &t : result.trace)
        times.push_back(t.finish);
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());

    RemainingWorkBounds out;
    for (const double now : times) {
        for (size_t li = 0; li < static_cast<size_t>(Link::NumLinks); ++li) {
            const Link link = static_cast<Link>(li);
            double started = 0.0;
            double busy_until = now;
            for (const TaskId id : by_start) {
                const TaskTrace &t = result.trace[id];
                if (g.tasks()[id].link != link || t.start > now)
                    continue;
                started += g.tasks()[id].duration;
                busy_until = std::max(busy_until, t.finish);
            }
            const double sum = g.linkDurationSum(link);
            out.bound = std::max(
                out.bound,
                Simulator::remainingWorkBound(
                    busy_until, Simulator::shrunkLinkSum(sum, g.size()),
                    started, g.size()));
            out.unshrunk =
                std::max(out.unshrunk, busy_until + (sum - started));
        }
    }
    return out;
}

/**
 * run(g) is referenceRun(g), bit for bit, and price(g) is run(g)
 * without the trace; makespanBelow(g, c) is run(g).makespan, bit for
 * bit, when that is below c and +inf otherwise, runBelow(g, c) is
 * run(g) whole or nothing, and priceBelow(g, c) price(g); checked
 * at the makespan m, at both of its nextafter neighbours, at
 * m (1 +- 2^-k) for k from 1 to 53, at 0 and +inf, and at random
 * cutoffs. Neither lower bound may exceed m, so neither can
 * fire for a cutoff above it.
 */
void
expectCutoffContract(const TaskGraph &g, std::mt19937 &rng,
                     const std::string &what)
{
    const Simulator simulator;
    const SimResult run = simulator.run(g);
    test::expectIdentical(g, run, referenceRun(g), what + " reference");
    test::expectPriceOf(simulator.price(g), run, what + " price");
    const double m = run.makespan;
    EXPECT_LE(Simulator::makespanLowerBound(g), m) << what;
    EXPECT_LE(replayRemainingWork(g, run).bound, m) << what;
    std::uniform_real_distribution<double> frac(0.0, 2.0);
    std::vector<double> cutoffs = {m, std::nextafter(m, kInf),
                                   std::nextafter(m, -kInf), 0.0, kInf,
                                   m * frac(rng), m * frac(rng),
                                   m * frac(rng)};
    for (const int k : {1, 2, 8, 20, 40, 52, 53}) {
        cutoffs.push_back(m * (1.0 + std::ldexp(1.0, -k)));
        cutoffs.push_back(m * (1.0 - std::ldexp(1.0, -k)));
    }
    for (const double c : cutoffs) {
        const double got = simulator.makespanBelow(g, c);
        const double want = m < c ? m : kInf;
        EXPECT_TRUE(test::sameBits(got, want))
            << what << ": cutoff " << c << " gave " << got << ", want "
            << want;
        const std::optional<SimResult> whole = simulator.runBelow(g, c);
        ASSERT_EQ(whole.has_value(), m < c) << what << ": cutoff " << c;
        if (whole)
            test::expectIdentical(g, *whole, run, what + " runBelow");
        const std::optional<SimResult> priced = simulator.priceBelow(g, c);
        ASSERT_EQ(priced.has_value(), m < c) << what << ": cutoff " << c;
        if (priced)
            test::expectPriceOf(*priced, run, what + " priceBelow");
    }
}

/**
 * A DAG built to strain the remaining-work bound: durations spanning
 * 40 binades, so that the link sums in id order and the started sums
 * in start order round differently; ~70% of tasks depend on a recent
 * task on another link, so links sit idle while they wait; random
 * streams and ~30% background priority, so tasks start out of id
 * order; ~5% zero-duration tasks.
 */
TaskGraph
adversarialDag(std::mt19937 &rng)
{
    const int n = std::uniform_int_distribution<int>(2, 200)(rng);
    const int streams = std::uniform_int_distribution<int>(1, 6)(rng);
    std::uniform_int_distribution<int> stream_dist(0, streams - 1);
    std::uniform_int_distribution<int> link_dist(
        0, static_cast<int>(Link::NumLinks) - 1);
    std::uniform_int_distribution<int> exponent(-30, 10);
    std::uniform_int_distribution<int> pct(0, 99);
    std::uniform_real_distribution<double> mantissa(1.0, 2.0);
    TaskGraph g;
    for (int i = 0; i < n; ++i) {
        std::vector<TaskId> deps;
        if (i > 0 && pct(rng) < 70)
            deps.push_back(std::uniform_int_distribution<TaskId>(
                std::max(0, i - 4), i - 1)(rng));
        const double duration =
            pct(rng) < 5 ? 0.0 : std::ldexp(mantissa(rng), exponent(rng));
        g.addTask({"t", i}, OpType::Other,
                  static_cast<Link>(link_dist(rng)), stream_dist(rng),
                  duration, deps, pct(rng) < 30 ? 1 : 0);
    }
    return g;
}

TEST(SimFuzz, MakespanBelowAgreesWithRunOnRandomDags)
{
    constexpr int kSeeds = 120;
    for (int seed = 0; seed < kSeeds; ++seed) {
        std::mt19937 rng(0xc0ffu + static_cast<unsigned>(seed));
        const TaskGraph g = randomDag(rng);
        expectCutoffContract(g, rng, "seed " + std::to_string(seed));
        if (::testing::Test::HasFailure())
            FAIL() << "first divergence at seed " << seed;
    }
}

/**
 * A wide, flat DAG: 9-64 streams whose first tasks all sit on the
 * inter-node link with no dependencies, so at t = 0 every stream head
 * is issuable on that one link, more than the simulator's candidate
 * scan holds. Later rows take random links, up to 2 dependencies on
 * earlier tasks, quantised durations (~10% zero) and ~25% background
 * priority, so the set leaves its heap, refills and ties on readiness.
 */
TaskGraph
flatDag(std::mt19937 &rng)
{
    const int streams = std::uniform_int_distribution<int>(9, 64)(rng);
    const int rows = std::uniform_int_distribution<int>(1, 6)(rng);
    std::uniform_int_distribution<int> link_dist(
        0, static_cast<int>(Link::NumLinks) - 1);
    std::uniform_int_distribution<int> op_dist(
        0, static_cast<int>(OpType::NumOpTypes) - 1);
    std::uniform_int_distribution<int> pct(0, 99);
    std::uniform_int_distribution<int> quantum(1, 40);
    std::uniform_int_distribution<int> dep_count_dist(0, 2);
    TaskGraph g;
    std::vector<TaskId> deps;
    for (int row = 0; row < rows; ++row) {
        for (int s = 0; s < streams; ++s) {
            const auto id = static_cast<TaskId>(g.size());
            deps.clear();
            if (row > 0) {
                std::uniform_int_distribution<TaskId> dep_dist(0, id - 1);
                for (int d = dep_count_dist(rng); d > 0; --d) {
                    const TaskId cand = dep_dist(rng);
                    if (std::find(deps.begin(), deps.end(), cand) ==
                        deps.end())
                        deps.push_back(cand);
                }
            }
            const Link link = row == 0 ? Link::InterNode
                                       : static_cast<Link>(link_dist(rng));
            const double duration =
                pct(rng) < 10 ? 0.0 : 0.25 * quantum(rng);
            g.addTask({"t", id}, static_cast<OpType>(op_dist(rng)), link, s,
                      duration, deps, pct(rng) < 25 ? 1 : 0);
        }
    }
    return g;
}

TEST(SimFuzz, MatchesNaiveReferenceOnWideDags)
{
    // Random DAGs with 9-64 streams, and flat ones whose stream heads
    // all compete for one link at t = 0: both must match the
    // reference bit for bit and keep the cutoff contract (which checks
    // both) while a link's candidate set holds more tasks than the
    // simulator scans.
    constexpr int kSeeds = 60;
    for (int seed = 0; seed < kSeeds; ++seed) {
        std::mt19937 rng(0x51de5u + static_cast<unsigned>(seed));
        for (const bool flat : {false, true}) {
            const TaskGraph g = flat ? flatDag(rng) : randomDag(rng, 9, 64);
            const std::string what = std::string(flat ? "flat" : "random") +
                                     " seed " + std::to_string(seed);
            expectCutoffContract(g, rng, what);
            if (::testing::Test::HasFailure())
                FAIL() << "first divergence: " << what << " (" << g.size()
                       << " tasks, " << g.numStreams() << " streams)";
        }
    }
}

TEST(SimFuzz, MakespanBelowAgreesWithRunOnScheduleGraphs)
{
    std::mt19937 rng(7);
    for (const sim::ClusterSpec &cluster : {testbedA(), testbedB()}) {
        const core::ModelCost cost = scheduleCost(cluster);

        for (const std::string &name :
             core::ScheduleRegistry::instance().names())
            expectCutoffContract(core::Schedule::create(name)->build(cost),
                                 rng, cluster.name + " " + name);
        for (int r : {1, 3, 16})
            expectCutoffContract(
                core::Schedule::create("tutel?degree=" + std::to_string(r))
                    ->build(cost),
                rng, cluster.name + " tutel r=" + std::to_string(r));
    }
}

TEST(SimFuzz, LinkBoundHoldsWhenStartOrderDiffersFromIdOrder)
{
    // Every task on one link, spread over streams so the start order
    // differs from the id order, with durations spanning 40 binades:
    // the makespan is then the start-order rounded sum and the bound
    // comes from the id-order one, the case the margin exists for.
    constexpr int kSeeds = 200;
    for (int seed = 0; seed < kSeeds; ++seed) {
        std::mt19937 rng(0xb0u + static_cast<unsigned>(seed));
        const int n = std::uniform_int_distribution<int>(2, 200)(rng);
        const int streams = std::uniform_int_distribution<int>(1, 6)(rng);
        std::uniform_int_distribution<int> stream_dist(0, streams - 1);
        std::uniform_int_distribution<int> exponent(-30, 10);
        std::uniform_int_distribution<int> pct(0, 99);
        std::uniform_real_distribution<double> mantissa(1.0, 2.0);
        TaskGraph g;
        for (int i = 0; i < n; ++i) {
            std::vector<TaskId> deps;
            if (i > 0 && pct(rng) < 20)
                deps.push_back(
                    std::uniform_int_distribution<TaskId>(0, i - 1)(rng));
            g.addTask({"t", i}, OpType::Other, Link::InterNode,
                      stream_dist(rng),
                      std::ldexp(mantissa(rng), exponent(rng)), deps,
                      pct(rng) < 30 ? 1 : 0);
        }
        expectCutoffContract(g, rng, "seed " + std::to_string(seed));
        if (::testing::Test::HasFailure())
            FAIL() << "first violation at seed " << seed;
    }
}

TEST(SimFuzz, RemainingWorkCutAgreesWithRunOnAdversarialDags)
{
    constexpr int kSeeds = 300;
    for (int seed = 0; seed < kSeeds; ++seed) {
        std::mt19937 rng(0xad5eedu + static_cast<unsigned>(seed));
        const TaskGraph g = adversarialDag(rng);
        expectCutoffContract(g, rng, "seed " + std::to_string(seed));
        if (::testing::Test::HasFailure())
            FAIL() << "first violation at seed " << seed;
    }
}

TEST(SimFuzz, RemainingWorkBoundNeedsItsSlack)
{
    // Adversarial seed 2 (39 tasks): at some replayed state, a link's
    // sum in id order minus its started sum in start order exceeds the
    // exact remaining work, so the bare bound busy_until + (sum -
    // started) passes the makespan, and a cutoff at that bare bound
    // would be cut although the makespan is below it. The shrunk bound
    // stays below the makespan, and the run is not cut. Many seeds do
    // this; the first is pinned.
    std::mt19937 rng(0xad5eedu + 2);
    const TaskGraph g = adversarialDag(rng);
    ASSERT_EQ(g.size(), 39u);
    const SimResult run = Simulator{}.run(g);
    const RemainingWorkBounds bounds = replayRemainingWork(g, run);
    EXPECT_GT(bounds.unshrunk, run.makespan);
    EXPECT_LE(bounds.bound, run.makespan);
    EXPECT_TRUE(test::sameBits(Simulator{}.makespanBelow(g, bounds.unshrunk),
                               run.makespan));
}

} // namespace
} // namespace fsmoe::sim
