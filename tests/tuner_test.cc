/**
 * @file
 * Tests for the schedule auto-tuner: Pareto-dominance invariants on
 * hand-built cost sets, byte-determinism of the search (repeat runs,
 * serial == parallel, pinned demo answers at four DE seeds and pinned
 * answers across models, testbeds and rMax), the frontier pass's
 * exact/cut/bounded/memo counts, the cached-advisor hit path (zero new
 * simulations, byte-identical warm answers, persistence round-trip,
 * impossible entries rejected), an
 * oracle check that the tuner's pick matches an independent
 * exhaustive grid search, and the peak-memory metric.
 *
 * Most tuner searches here use a small query (Testbed B, short
 * sequences, low rMax) so a full search stays fast; registrations are
 * process-wide, so plugins registered here use test-unique names.
 */
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/audit.h"
#include "base/stats.h"
#include "core/schedules/schedule.h"
#include "core/schedules/schedule_registry.h"
#include "runtime/tuner.h"
#include "sim/simulator.h"

namespace fsmoe::runtime {
namespace {

TuneQuery
smallQuery()
{
    TuneQuery q;
    q.model = "gpt2xl-moe";
    q.cluster = "testbedB";
    q.batch = 1;
    q.seqLen = 256;
    q.rMax = 4;
    return q;
}

TuneCandidate
cand(const char *spec, double makespan, double comm, double mem)
{
    TuneCandidate c;
    c.spec = spec;
    c.makespanMs = makespan;
    c.commBusyMs = comm;
    c.peakMemMB = mem;
    return c;
}

std::vector<std::string>
specsOf(const std::vector<TuneCandidate> &cs)
{
    std::vector<std::string> out;
    for (const TuneCandidate &c : cs)
        out.push_back(c.spec);
    return out;
}

// ------------------------------------------------- Pareto invariants

TEST(ParetoFrontier, SinglePointSurvives)
{
    const auto f = paretoFrontier({cand("a", 1, 1, 1)});
    EXPECT_EQ(specsOf(f), std::vector<std::string>{"a"});
}

TEST(ParetoFrontier, DominatedPointsAreRemoved)
{
    // "best" dominates everything: no worse anywhere, better somewhere.
    const auto f = paretoFrontier({
        cand("worse-everywhere", 3, 3, 3),
        cand("best", 1, 1, 1),
        cand("worse-on-one-axis", 1, 1, 2),
        cand("equal-two-axes", 2, 1, 1),
    });
    EXPECT_EQ(specsOf(f), std::vector<std::string>{"best"});
}

TEST(ParetoFrontier, TradeoffsAllSurviveSorted)
{
    // A three-way tradeoff: each point is best on one objective.
    const auto f = paretoFrontier({
        cand("low-mem", 3, 3, 1),
        cand("fast", 1, 3, 3),
        cand("low-comm", 3, 1, 3),
    });
    EXPECT_EQ(specsOf(f), (std::vector<std::string>{
                              "fast", "low-comm", "low-mem"}));
    // Sorted by makespan first, then comm.
    EXPECT_LE(f[0].makespanMs, f[1].makespanMs);
    EXPECT_LE(f[1].commBusyMs, f[2].commBusyMs);
}

TEST(ParetoFrontier, NoSurvivorDominatesAnother)
{
    // Random-ish fixed set; re-check the frontier definition directly.
    std::vector<TuneCandidate> pts;
    for (int i = 0; i < 5; ++i)
        for (int j = 0; j < 5; ++j)
            pts.push_back(cand(("p" + std::to_string(i * 5 + j)).c_str(),
                               i, j, (i * 3 + j * 7) % 5));
    const auto f = paretoFrontier(pts);
    ASSERT_FALSE(f.empty());
    const auto dominates = [](const TuneCandidate &a,
                              const TuneCandidate &b) {
        return a.makespanMs <= b.makespanMs &&
               a.commBusyMs <= b.commBusyMs &&
               a.peakMemMB <= b.peakMemMB &&
               (a.makespanMs < b.makespanMs ||
                a.commBusyMs < b.commBusyMs || a.peakMemMB < b.peakMemMB);
    };
    for (const TuneCandidate &a : f)
        for (const TuneCandidate &b : f)
            EXPECT_FALSE(dominates(a, b))
                << a.spec << " dominates " << b.spec;
    // And every eliminated point is dominated by some survivor.
    for (const TuneCandidate &p : pts) {
        const bool kept =
            std::any_of(f.begin(), f.end(), [&](const TuneCandidate &s) {
                return s.spec == p.spec;
            });
        if (kept)
            continue;
        EXPECT_TRUE(std::any_of(f.begin(), f.end(),
                                [&](const TuneCandidate &s) {
                                    return dominates(s, p);
                                }))
            << p.spec << " was dropped but nothing dominates it";
    }
}

TEST(ParetoFrontier, DuplicateSpecsCollapseKeepingFirst)
{
    const auto f = paretoFrontier({
        cand("dup", 1, 1, 1),
        cand("dup", 9, 9, 9),
        cand("other", 1, 1, 2),
    });
    ASSERT_EQ(f.size(), 1u) << "first 'dup' should dominate 'other'";
    EXPECT_EQ(f[0].spec, "dup");
    EXPECT_EQ(f[0].makespanMs, 1.0);
}

TEST(ParetoFrontier, EqualObjectivesBothSurvive)
{
    // Neither dominates the other (nothing strictly better).
    const auto f = paretoFrontier({
        cand("b", 1, 1, 1),
        cand("a", 1, 1, 1),
    });
    EXPECT_EQ(specsOf(f), (std::vector<std::string>{"a", "b"}));
}

// ---------------------------------------------------- peak-mem metric

TEST(PeakConcurrentComm, OverlapRaisesThePeak)
{
    core::PerfModelSet models;
    models.alltoall = {0.0, 1.0 / (1 << 20), 1.0}; // 1 ms per MB
    models.allgather = models.alltoall;

    // Two 1 MB transfers on different links: sequential in one graph,
    // dependency-free (overlapping) in the other.
    sim::TaskGraph overlap;
    overlap.addTask("a2a", sim::OpType::AlltoAll, sim::Link::InterNode, 0,
                    1.0, {});
    overlap.addTask("ag", sim::OpType::AllGather, sim::Link::IntraNode, 1,
                    1.0, {});
    sim::TaskGraph sequential;
    const auto first = sequential.addTask("a2a", sim::OpType::AlltoAll,
                                          sim::Link::InterNode, 0, 1.0, {});
    sequential.addTask("ag", sim::OpType::AllGather, sim::Link::IntraNode,
                       1, 1.0, {first});

    const double peak_overlap = peakConcurrentCommMB(
        overlap, sim::Simulator{}.run(overlap), models);
    const double peak_sequential = peakConcurrentCommMB(
        sequential, sim::Simulator{}.run(sequential), models);
    EXPECT_DOUBLE_EQ(peak_overlap, 2.0);
    EXPECT_DOUBLE_EQ(peak_sequential, 1.0);
}

TEST(PeakConcurrentComm, ComputeTasksContributeNothing)
{
    core::PerfModelSet models;
    models.gemm = {0.0, 1.0, 1.0};
    sim::TaskGraph g;
    g.addTask("experts", sim::OpType::Experts, sim::Link::Compute, 0, 5.0,
              {});
    EXPECT_DOUBLE_EQ(
        peakConcurrentCommMB(g, sim::Simulator{}.run(g), models), 0.0);
}

// ------------------------------------------------------- determinism

TEST(Tuner, RepeatSearchesAreByteIdentical)
{
    // Two fresh tuners (nothing shared) must serialize identically.
    Tuner first;
    Tuner second;
    const TuneAnswer a = first.tune(smallQuery());
    const TuneAnswer b = second.tune(smallQuery());
    EXPECT_FALSE(a.fromCache);
    EXPECT_FALSE(b.fromCache);
    EXPECT_EQ(Tuner::answerJson(a), Tuner::answerJson(b));
}

TEST(Tuner, SerialAndParallelSearchesAgree)
{
    TuneOptions serial;
    serial.numThreads = 1;
    TuneOptions parallel;
    parallel.numThreads = 4;
    Tuner st(serial);
    Tuner pt(parallel);
    EXPECT_EQ(Tuner::answerJson(st.tune(smallQuery())),
              Tuner::answerJson(pt.tune(smallQuery())));
}

/** The demo query (fsmoe_tune's defaults), as demo_tune.json pins. */
TuneQuery
demoQuery()
{
    TuneQuery q;
    q.model = "gpt2xl-moe";
    q.cluster = "testbedA";
    return q;
}

TEST(Tuner, DemoAnswersKeepTheirBytesAtEveryDeSeed)
{
    // FNV digests of answerJson for the four DE seeds perfbench's
    // tune-cold queries (the default first), recorded when every DE
    // probe was still built and simulated in full, and re-recorded
    // when the gradient partitioner's step 2 became exact (FSMoE's
    // makespans moved). A probe that stops at its cutoff, or that is
    // answered from the memo because an earlier probe built the same
    // graph (Schedule::graphKey), must leave every DE decision, and so
    // every answer byte, as it was.
    struct Pinned
    {
        uint64_t seed;
        uint64_t digest;
        uint64_t evals, memo, cut;
    };
    // Before probes were memoized by graph key, the seeds took
    // 260/140/26, 338/62/60, 280/120/36 and 307/93/46 evals/memo/cut.
    const Pinned kWant[] = {
        {TuneOptions{}.de.seed, 0x54f84cc1d5c7a7e4ull, 23, 377, 7},
        {11, 0xc8448e6642bd5fa6ull, 50, 350, 31},
        {23, 0x90f64abcbd09bf21ull, 44, 356, 23},
        {37, 0x85d8d28ebebedb3aull, 41, 359, 24},
    };
    stats::Counter &tasks = stats::counter("sim.tasks.executed");
    stats::Counter &evals = stats::counter("tuner.probe.evals");
    stats::Counter &memo = stats::counter("tuner.probe.memo");
    stats::Counter &cut = stats::counter("tuner.probe.cut");
    for (const Pinned &p : kWant) {
        TuneOptions options;
        options.numThreads = 1;
        options.de.seed = p.seed;
        Tuner tuner(options);
        const uint64_t tasks0 = tasks.value();
        const uint64_t evals0 = evals.value();
        const uint64_t memo0 = memo.value();
        const uint64_t cut0 = cut.value();
        const std::string json = Tuner::answerJson(tuner.tune(demoQuery()));
        EXPECT_EQ(audit::Fingerprint().mix(json).digest(), p.digest)
            << "seed " << p.seed << ":\n" << json;
        // Lina's DE makes 16 x 25 objective calls; most probe a chunk
        // of at least the model's 118 MB of gradients, whose graph is
        // the degree's alone, so they are memo hits, and some stop at
        // their cutoff.
        EXPECT_EQ(evals.value() - evals0 + memo.value() - memo0, 400u)
            << "seed " << p.seed;
        EXPECT_EQ(evals.value() - evals0, p.evals) << "seed " << p.seed;
        EXPECT_EQ(memo.value() - memo0, p.memo) << "seed " << p.seed;
        EXPECT_EQ(cut.value() - cut0, p.cut) << "seed " << p.seed;
        if (p.seed == TuneOptions{}.de.seed) {
            // The default-seed query simulated 556,846 tasks when every
            // DE probe was built and run in full, 230,322 when every
            // frontier candidate still was, and 158,288 when DE probes
            // were memoized by spec and the metric pass simulated its
            // short list again; it now simulates 42,631.
            EXPECT_LT(tasks.value() - tasks0, 158288u);
        }
    }
}

TEST(Tuner, AColdQuerysMetricPassSimulatesNothing)
{
    // The metric pass reads the graphs and results the frontier pass
    // kept, so a cold query's simulations are its DE probes' and its
    // frontier pass's: 26 on the demo query, which ran 266 when the
    // metric pass simulated its 16 specs again, and 32 when the
    // frontier pass still priced a spec spelling out its defaults, or
    // a degree search's fixed-degree twin, apart from the graph it
    // shares (6 of its 16 exact candidates). The engine evaluates no
    // scenario and simulates no built graph.
    stats::Counter &runs = stats::counter("sim.runs");
    TuneOptions options;
    options.numThreads = 1;
    Tuner tuner(options);
    const uint64_t runs0 = runs.value();
    const TuneAnswer answer = tuner.tune(demoQuery());
    EXPECT_EQ(runs.value() - runs0, 26u);
    const SweepStats st = tuner.engine().stats();
    EXPECT_EQ(st.scenariosRun, 0u);
    EXPECT_EQ(st.simulateMs, 0.0);
    EXPECT_EQ(audit::Fingerprint().mix(Tuner::answerJson(answer)).digest(),
              0x54f84cc1d5c7a7e4ull);
}

TEST(Tuner, AnswersKeepTheirBytesAcrossModelsTestbedsAndDegrees)
{
    // FNV digests of answerJson recorded when the frontier pass still
    // priced every candidate in full. Both models and both testbeds, at
    // rMax 16 and 4: the metric set's cutoff moves with rMax, and the
    // bound-first pass must pick the same set everywhere.
    struct Pinned
    {
        const char *model;
        const char *cluster;
        int64_t batch;
        int rMax;
        uint64_t digest;
    };
    const Pinned kWant[] = {
        {"gpt2xl-moe", "testbedA", 2, 16, 0x535db644518f63ecull},
        {"gpt2xl-moe", "testbedB", 1, 16, 0x3a3e9db3b34fbeafull},
        {"mixtral-7b", "testbedA", 1, 16, 0xd790c9d7e700a1cfull},
        {"gpt2xl-moe", "testbedA", 1, 4, 0xc166dab32a144073ull},
        {"gpt2xl-moe", "testbedB", 2, 4, 0x42d6a7eacc8f32e9ull},
        {"mixtral-7b", "testbedA", 2, 4, 0x52bfad81dc51ea2cull},
        {"mixtral-7b", "testbedB", 1, 4, 0xafcbda992c641714ull},
        {"mixtral-7b", "testbedB", 2, 4, 0x7839a6994e11eac1ull},
    };
    for (const Pinned &p : kWant) {
        TuneQuery q;
        q.model = p.model;
        q.cluster = p.cluster;
        q.batch = p.batch;
        q.rMax = p.rMax;
        TuneOptions options;
        options.numThreads = 1;
        const std::string json = Tuner::answerJson(Tuner(options).tune(q));
        EXPECT_EQ(audit::Fingerprint().mix(json).digest(), p.digest)
            << p.model << " " << p.cluster << " b=" << p.batch
            << " rMax=" << p.rMax << ":\n" << json;
    }
}

TEST(Tuner, FrontierPassPricesOnlyCandidatesThatCanReachTheMetricPass)
{
    // The demo query's 45 candidates: the 16 that reach the metric set
    // are priced exactly, and the 29 others, Tutel and Tutel-Improved
    // variants, lose on their release-date bounds alone, unbuilt, so no
    // probe is cut mid-run. 6 of the 16 are served from a graph the
    // pass already priced: FSMoE?step2=true, FSMoE-No-IIO?step2=true,
    // Tutel?degree=0 and Tutel-Improved?degree=0 share their bare
    // names' keys, and Tutel?degree=1 and Tutel-Improved?degree=1 are
    // the graphs their bare names' searches picked.
    stats::Counter &exact = stats::counter("tuner.frontier.exact");
    stats::Counter &cut = stats::counter("tuner.frontier.cut");
    stats::Counter &bounded = stats::counter("tuner.frontier.bounded");
    stats::Counter &memo = stats::counter("tuner.frontier.memo");
    const uint64_t exact0 = exact.value();
    const uint64_t cut0 = cut.value();
    const uint64_t bounded0 = bounded.value();
    const uint64_t memo0 = memo.value();
    TuneOptions options;
    options.numThreads = 1;
    Tuner tuner(options);
    EXPECT_FALSE(tuner.tune(demoQuery()).fromCache);
    EXPECT_EQ(exact.value() - exact0, 16u);
    EXPECT_EQ(cut.value() - cut0, 0u);
    EXPECT_EQ(bounded.value() - bounded0, 29u);
    EXPECT_EQ(memo.value() - memo0, 6u);
    EXPECT_EQ(exact.value() - exact0 + cut.value() - cut0 +
                  bounded.value() - bounded0,
              45u);

    // A warm answer touches none of them.
    const uint64_t seen =
        exact.value() + cut.value() + bounded.value() + memo.value();
    EXPECT_TRUE(tuner.tune(demoQuery()).fromCache);
    EXPECT_EQ(exact.value() + cut.value() + bounded.value() + memo.value(),
              seen);
}

// ------------------------------------------------- advisor cache path

TEST(Tuner, WarmQueryIsServedFromCacheWithZeroSimulations)
{
    Tuner tuner;
    const TuneAnswer cold = tuner.tune(smallQuery());
    ASSERT_FALSE(cold.fromCache);

    const uint64_t sims_before = stats::counter("sim.runs").value();
    const TuneAnswer warm = tuner.tune(smallQuery());
    const uint64_t sims_after = stats::counter("sim.runs").value();

    EXPECT_TRUE(warm.fromCache);
    EXPECT_EQ(sims_after, sims_before)
        << "a warm advisor query must not simulate";
    EXPECT_EQ(Tuner::answerJson(warm), Tuner::answerJson(cold));
}

TEST(Tuner, CachePersistenceRoundTripsAndServesWarmQueries)
{
    const std::string path =
        testing::TempDir() + "/fsmoe_advisor_cache_test.json";
    std::string error;

    Tuner writer;
    const TuneAnswer cold = writer.tune(smallQuery());
    ASSERT_TRUE(writer.saveCache(path, &error)) << error;

    // A fresh tuner loading the file answers warm: no simulations.
    Tuner reader;
    ASSERT_TRUE(reader.loadCache(path, &error)) << error;
    const uint64_t sims_before = stats::counter("sim.runs").value();
    const TuneAnswer warm = reader.tune(smallQuery());
    EXPECT_TRUE(warm.fromCache);
    EXPECT_EQ(stats::counter("sim.runs").value(), sims_before);
    EXPECT_EQ(Tuner::answerJson(warm), Tuner::answerJson(cold));

    // Parse -> reserialize is byte-stable.
    ASSERT_TRUE(reader.saveCache(path + ".2", &error)) << error;
    std::ifstream f1(path, std::ios::binary);
    std::ifstream f2(path + ".2", std::ios::binary);
    const std::string bytes1((std::istreambuf_iterator<char>(f1)),
                             std::istreambuf_iterator<char>());
    const std::string bytes2((std::istreambuf_iterator<char>(f2)),
                             std::istreambuf_iterator<char>());
    EXPECT_FALSE(bytes1.empty());
    EXPECT_EQ(bytes1, bytes2);
    std::remove(path.c_str());
    std::remove((path + ".2").c_str());
}

TEST(Tuner, CacheLoadRejectsForeignFiles)
{
    const std::string path =
        testing::TempDir() + "/fsmoe_advisor_bogus_test.json";
    {
        std::ofstream out(path, std::ios::binary);
        out << "{\"schema\": \"something-else\", \"version\": 1}";
    }
    Tuner tuner;
    std::string error;
    EXPECT_FALSE(tuner.loadCache(path, &error));
    EXPECT_NE(error.find("fsmoe-advisor-cache"), std::string::npos)
        << error;
    // A v1 file has no registry digests, so it cannot say which
    // schedules its answers were chosen from.
    {
        std::ofstream out(path, std::ios::binary);
        out << "{\"schema\": \"fsmoe-advisor-cache\", \"version\": 1, "
               "\"entries\": []}";
    }
    EXPECT_FALSE(tuner.loadCache(path, &error));
    EXPECT_NE(error.find("fsmoe-advisor-cache"), std::string::npos)
        << error;
    EXPECT_FALSE(tuner.loadCache(path + ".missing", &error));
    EXPECT_EQ(tuner.cacheSize(), 0u);
    std::remove(path.c_str());
}

TEST(Tuner, CacheLoadRejectsImpossibleEntries)
{
    // One well-formed entry, then each field an answer from search()
    // can never carry: loadCache must fail and keep nothing.
    const std::string path =
        testing::TempDir() + "/fsmoe_advisor_impossible_test.json";
    const auto file = [](const std::string &best, const std::string &ms,
                         const std::string &evaluated,
                         const std::string &frontier) {
        return "{\"schema\": \"fsmoe-advisor-cache\", \"version\": 2, "
               "\"entries\": [{\"query\": \"q\", \"registry\": "
               "\"0123456789abcdef\", \"best\": \"" +
               best + "\", \"bestMakespanMs\": " + ms +
               ", \"evaluated\": " + evaluated + ", \"frontier\": [" +
               frontier + "]}]}";
    };
    const std::string head = "{\"spec\": \"A\", \"makespanMs\": 2.5, "
                             "\"commBusyMs\": 1, \"peakMemMB\": 1}";
    const auto load = [&](const std::string &text, std::string *error) {
        {
            std::ofstream out(path, std::ios::binary);
            out << text;
        }
        Tuner tuner;
        const bool ok = tuner.loadCache(path, error);
        EXPECT_EQ(tuner.cacheSize(), ok ? 1u : 0u);
        return ok;
    };
    std::string error;
    ASSERT_TRUE(load(file("A", "2.5", "7", head), &error)) << error;

    const struct
    {
        std::string text;
        const char *why;
    } kBad[] = {
        {file("A", "2.5", "-1", head), "negative"},
        {file("A", "2.5", "2.5", head), "evaluated"},
        {file("A", "2.5", "1e300", head), "evaluated"},
        {file("A", "2.5", "7", ""), "empty frontier"},
        {file("B", "2.5", "7", head), "frontier's first"},
        {file("A", "2.25", "7", head), "frontier's first"},
    };
    for (const auto &bad : kBad) {
        error.clear();
        EXPECT_FALSE(load(bad.text, &error)) << bad.text;
        EXPECT_NE(error.find(bad.why), std::string::npos)
            << bad.text << ": " << error;
    }
    std::remove(path.c_str());
}

// ------------------------------------------------------- oracle check

/**
 * A schedule whose makespan is a known convex function of its one
 * parameter: a single compute task of (1 + (k - 5)^2) microseconds.
 * Its optimum (k = 5) is tiny compared to every built-in schedule, so
 * the tuner's global answer must be exactly this spec — and it must
 * match an independent exhaustive search.
 */
class OracleSchedule : public core::Schedule
{
  public:
    explicit OracleSchedule(int k) : k_(k) {}
    sim::TaskGraph build(const core::ModelCost &) const override
    {
        sim::TaskGraph graph;
        const double us = 1.0 + (k_ - 5.0) * (k_ - 5.0);
        graph.addTask("oracle", sim::OpType::Other, sim::Link::Compute, 0,
                      us * 1e-3, {});
        return graph;
    }

  private:
    int k_;
};

TEST(Tuner, PickMatchesExhaustiveGridSearchOracle)
{
    core::ScheduleRegistry &reg = core::ScheduleRegistry::instance();
    core::ScheduleInfo info;
    info.name = "tuner-test-oracle";
    info.description = "convex 1-D test schedule";
    info.params = {{"k", core::ScheduleParamType::Int, "0",
                    "position on the convex curve", 0.0, 8.0}};
    ASSERT_TRUE(
        reg.registerSchedule(info, [](const core::ScheduleParams &p) {
            return std::make_unique<OracleSchedule>(
                static_cast<int>(p.getInt("k", 0)));
        }));

    // Independent exhaustive search over the declared grid.
    const TuneQuery query = smallQuery();
    const core::ModelCost cost =
        ScenarioRegistry::instance().makeCost(query.scenario());
    std::string oracle_best;
    double oracle_ms = 0.0;
    for (int k = 0; k <= 8; ++k) {
        const std::string spec =
            "tuner-test-oracle?k=" + std::to_string(k);
        const double ms =
            sim::Simulator{}.run(core::Schedule::create(spec)->build(cost))
                .makespan;
        if (oracle_best.empty() || ms < oracle_ms) {
            oracle_best = spec;
            oracle_ms = ms;
        }
    }
    EXPECT_EQ(oracle_best, "tuner-test-oracle?k=5");

    Tuner tuner;
    const TuneAnswer answer = tuner.tune(query);
    EXPECT_EQ(answer.best, oracle_best);
    EXPECT_DOUBLE_EQ(answer.bestMakespanMs, oracle_ms);
}

/** A parameterless schedule faster than anything above: one 1 ns task. */
class InstantSchedule : public core::Schedule
{
  public:
    sim::TaskGraph build(const core::ModelCost &) const override
    {
        sim::TaskGraph graph;
        graph.addTask("instant", sim::OpType::Other, sim::Link::Compute, 0,
                      1e-6, {});
        return graph;
    }
};

// Declared after the oracle test: a single-process run registers this
// schedule for every later test, and it beats the oracle's optimum.
TEST(Tuner, RegisteringAScheduleInvalidatesCachedAnswers)
{
    const std::string path =
        testing::TempDir() + "/fsmoe_advisor_registry_test.json";
    std::string error;
    Tuner tuner;
    const TuneAnswer before = tuner.tune(smallQuery());
    ASSERT_TRUE(tuner.saveCache(path, &error)) << error;

    core::ScheduleInfo info;
    info.name = "tuner-test-late";
    info.description = "registered after an answer was cached";
    ASSERT_TRUE(core::ScheduleRegistry::instance().registerSchedule(
        info, [](const core::ScheduleParams &) {
            return std::make_unique<InstantSchedule>();
        }));

    // In memory: the answer cached before the registration is stale.
    const TuneAnswer after = tuner.tune(smallQuery());
    EXPECT_FALSE(after.fromCache);
    EXPECT_EQ(after.best, "tuner-test-late");
    EXPECT_NE(after.best, before.best);
    EXPECT_EQ(after.queryKey, before.queryKey);

    // Via the file: a cache saved before the registration loads, but
    // its answer is not served.
    Tuner reader;
    ASSERT_TRUE(reader.loadCache(path, &error)) << error;
    const TuneAnswer loaded = reader.tune(smallQuery());
    EXPECT_FALSE(loaded.fromCache);
    EXPECT_EQ(loaded.best, "tuner-test-late");
    std::remove(path.c_str());
}

// --------------------------------------------------- answer structure

TEST(Tuner, FrontierContainsBestAndBareNamesAreAlwaysCandidates)
{
    Tuner tuner;
    const TuneAnswer answer = tuner.tune(smallQuery());
    ASSERT_FALSE(answer.frontier.empty());
    EXPECT_EQ(answer.best, answer.frontier.front().spec);
    EXPECT_EQ(answer.bestMakespanMs, answer.frontier.front().makespanMs);
    // The frontier is sorted and contains no dominated entry.
    for (size_t i = 1; i < answer.frontier.size(); ++i)
        EXPECT_LE(answer.frontier[i - 1].makespanMs,
                  answer.frontier[i].makespanMs);
    // Every registered schedule was probed at least via its bare name,
    // so the search can never answer worse than the best default.
    EXPECT_GE(answer.evaluated,
              core::ScheduleRegistry::instance().names().size());
}

} // namespace
} // namespace fsmoe::runtime
