/**
 * @file
 * Tests for the scenario-sweep runtime: grid enumeration,
 * parallel-equals-serial determinism, ModelCost cache accounting, and
 * Chrome-trace export well-formedness.
 */
#include <cctype>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/stats.h"
#include "core/schedules/schedule.h"
#include "core/schedules/schedule_registry.h"
#include "runtime/scenario.h"
#include "runtime/sweep_engine.h"
#include "runtime/trace_export.h"
#include "sim/trace.h"

namespace fsmoe::runtime {
namespace {

// ---------------------------------------------------------- scenarios

TEST(Scenario, GridEnumeratesCartesianProductDeterministically)
{
    auto grid = ScenarioGrid()
                    .models({"gpt2xl-moe", "mixtral-7b"})
                    .clusters({"testbedA", "testbedB"})
                    .batches({1, 2})
                    .build();
    EXPECT_EQ(grid.size(),
              2u * 2u * 2u * core::ScheduleRegistry::instance().names().size());
    auto again = ScenarioGrid()
                     .models({"gpt2xl-moe", "mixtral-7b"})
                     .clusters({"testbedA", "testbedB"})
                     .batches({1, 2})
                     .build();
    ASSERT_EQ(grid.size(), again.size());
    for (size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(grid[i].label(), again[i].label());
}

TEST(Scenario, CostKeyIgnoresScheduleOnly)
{
    Scenario a;
    a.model = "gpt2xl-moe";
    a.cluster = "testbedA";
    a.schedule = "FSMoE";
    Scenario b = a;
    b.schedule = "Tutel?degree=4";
    EXPECT_EQ(a.costKey(), b.costKey());
    EXPECT_NE(a.label(), b.label());
    b.batch = 2;
    EXPECT_NE(a.costKey(), b.costKey());
}

TEST(Scenario, RegistryKnowsBuiltinPresets)
{
    const ScenarioRegistry &reg = ScenarioRegistry::instance();
    std::string canonical, error;
    for (const char *name :
         {"gpt2xl-moe", "mixtral-7b", "mixtral-22b", "table4"}) {
        EXPECT_TRUE(reg.canonicalizeModel(name, &canonical, &error)) << error;
        EXPECT_EQ(canonical, name);
    }
    for (const char *name : {"testbedA", "testbedB"}) {
        EXPECT_TRUE(reg.canonicalizeCluster(name, &canonical, &error))
            << error;
        EXPECT_EQ(canonical, name);
    }
    EXPECT_FALSE(reg.canonicalizeModel("no-such-model", &canonical, &error));
    EXPECT_NE(error.find("unknown model preset 'no-such-model'"),
              std::string::npos)
        << error;
}

TEST(Scenario, PresetSpecsTakeTheScheduleGrammar)
{
    const ScenarioRegistry &reg = ScenarioRegistry::instance();
    std::string canonical, error;
    // Keys in declared order with canonical spelling and values; a
    // key given at its default stays, as for schedules.
    EXPECT_TRUE(reg.canonicalizeModel(
        " table4 ? SwiGLU=1 & cf=2.50 & Heads=08 & embed=2048 & hidden=6144 ",
        &canonical, &error))
        << error;
    EXPECT_EQ(canonical,
              "table4?heads=8&embed=2048&hidden=6144&cf=2.5&swiglu=true");
    EXPECT_TRUE(reg.canonicalizeCluster("testbedA?NODES=04", &canonical,
                                        &error))
        << error;
    EXPECT_EQ(canonical, "testbedA?nodes=4");

    // The table4 spec prices the layer its keys describe.
    Scenario s;
    s.model = "table4?heads=8&cf=0&swiglu=true";
    s.cluster = "testbedB";
    s.numLayers = 2;
    const sim::ClusterSpec cluster = reg.makeCluster(s.cluster);
    const model::ModelSpec spec = reg.makeModel(s, cluster);
    EXPECT_EQ(spec.numLayers, 2);
    EXPECT_EQ(spec.layer.numHeads, 8);
    EXPECT_EQ(spec.layer.embed, 2048);
    EXPECT_EQ(spec.layer.hidden, 6144);
    EXPECT_EQ(spec.layer.capacityFactor, 0.0);
    EXPECT_EQ(spec.layer.ffn, core::FfnType::Mixtral);
    EXPECT_EQ(spec.layer.numExperts, cluster.numNodes);

    // Rejected specs name the problem; schedules and presets share the
    // validator's texts.
    const struct
    {
        const char *spec;
        bool model;
        const char *why;
    } bad[] = {
        {"table4?depth=3", true,
         "model preset 'table4' has no parameter 'depth'; declared: heads, "
         "embed, hidden, cf, swiglu"},
        {"testbedA?nodes=0", false,
         "bad value '0' for parameter 'nodes' of cluster preset 'testbedA': "
         "must be >= 1"},
        {"table4?heads=1.5", true,
         "bad value '1.5' for parameter 'heads' of model preset 'table4': "
         "expected an integer"},
        {"table4?heads=8&HEADS=16", true, "duplicate parameter 'heads'"},
        {"testbedB?nodes=4", false,
         "cluster preset 'testbedB' has no parameter 'nodes' (it declares "
         "none)"},
        {"testbedA?", false, "malformed parameter ''"},
    };
    for (const auto &b : bad) {
        error.clear();
        EXPECT_FALSE(b.model
                         ? reg.canonicalizeModel(b.spec, &canonical, &error)
                         : reg.canonicalizeCluster(b.spec, &canonical,
                                                   &error))
            << b.spec;
        EXPECT_NE(error.find(b.why), std::string::npos)
            << b.spec << ": " << error;
    }
}

TEST(Scenario, GridRejectsBadPresetAxesBeforeBuilding)
{
    EXPECT_DEATH(ScenarioGrid().models({"bogus"}).build(),
                 "bad model axis: unknown model preset 'bogus'");
    EXPECT_DEATH(ScenarioGrid().clusters({"testbedA?nodes=0"}).build(),
                 "bad cluster axis: bad value '0' for parameter 'nodes'");
    // Valid axes come out in canonical spelling.
    const auto grid = ScenarioGrid()
                          .models({"table4?HEADS=8"})
                          .clusters({"testbedA?nodes=02"})
                          .schedules({"fsmoe"})
                          .build();
    ASSERT_EQ(grid.size(), 1u);
    EXPECT_EQ(grid[0].model, "table4?heads=8");
    EXPECT_EQ(grid[0].cluster, "testbedA?nodes=2");
}

TEST(Schedule, FactoryBySpecResolvesCanonicalNamesAndAliases)
{
    // Alias/normalization details live in schedule_registry_test; here
    // we only check the runtime-facing contract: every registered name
    // resolves to a schedule reporting that canonical name.
    for (const std::string &name :
         core::ScheduleRegistry::instance().names()) {
        auto sched = core::Schedule::create(name);
        EXPECT_EQ(sched->name(), name);
    }
    std::string error;
    EXPECT_EQ(core::ScheduleRegistry::instance().tryCreate("bogus", &error),
              nullptr);
    EXPECT_NE(error.find("unknown schedule"), std::string::npos);
}

// -------------------------------------------------------------- engine

/** A small but non-trivial grid: 4 configurations x 6 schedules. */
std::vector<Scenario>
testGrid()
{
    auto grid = ScenarioGrid()
                    .models({"gpt2xl-moe"})
                    .clusters({"testbedA", "testbedB"})
                    .batches({1, 2})
                    .numLayers({3})
                    .build();
    // Parameterized presets: a Table 4 layer and a rescaled testbed.
    Scenario layer;
    layer.model = "table4?heads=8&embed=1024&hidden=4096&cf=0&swiglu=true";
    layer.cluster = "testbedB";
    layer.numLayers = 2;
    layer.schedule = "FSMoE";
    grid.push_back(layer);
    Scenario scaled;
    scaled.model = "mixtral-7b";
    scaled.cluster = "testbedA?nodes=2";
    scaled.numLayers = 3;
    scaled.schedule = "Tutel";
    grid.push_back(scaled);
    return grid;
}

TEST(SweepEngine, ParallelResultsAreBitIdenticalToSerial)
{
    const auto grid = testGrid();
    SweepEngine serial({/*numThreads=*/1});
    SweepEngine parallel({/*numThreads=*/4});
    const auto s = serial.run(grid);
    const auto p = parallel.run(grid);

    ASSERT_EQ(s.size(), grid.size());
    ASSERT_EQ(p.size(), grid.size());
    for (size_t i = 0; i < grid.size(); ++i) {
        EXPECT_GT(s[i].makespanMs, 0.0);
        // memcmp: bit-identical, not approximately equal.
        EXPECT_EQ(std::memcmp(&s[i].makespanMs, &p[i].makespanMs,
                              sizeof(double)),
                  0)
            << grid[i].label();
        ASSERT_EQ(s[i].sim.trace.size(), p[i].sim.trace.size());
        for (size_t t = 0; t < s[i].sim.trace.size(); ++t) {
            EXPECT_EQ(s[i].sim.trace[t].id, p[i].sim.trace[t].id);
            EXPECT_EQ(std::memcmp(&s[i].sim.trace[t].start,
                                  &p[i].sim.trace[t].start,
                                  sizeof(double)),
                      0);
            EXPECT_EQ(std::memcmp(&s[i].sim.trace[t].finish,
                                  &p[i].sim.trace[t].finish,
                                  sizeof(double)),
                      0);
        }
    }
}

TEST(SweepEngine, CostCacheCountsHitsPerSharedConfiguration)
{
    const auto grid = testGrid();
    std::set<std::string> unique_keys;
    for (const Scenario &s : grid)
        unique_keys.insert(s.costKey());
    ASSERT_EQ(unique_keys.size(), 6u);

    SweepEngine engine({/*numThreads=*/4});
    engine.run(grid);
    SweepStats stats = engine.stats();
    EXPECT_EQ(stats.costCacheMisses, unique_keys.size());
    EXPECT_EQ(stats.costCacheHits, grid.size() - unique_keys.size());

    // A second identical sweep is fully cached.
    engine.run(grid);
    stats = engine.stats();
    EXPECT_EQ(stats.costCacheMisses, unique_keys.size());
    EXPECT_EQ(stats.costCacheHits, 2 * grid.size() - unique_keys.size());

    engine.clearCostCache();
    engine.run(grid);
    stats = engine.stats();
    EXPECT_EQ(stats.costCacheMisses, 2 * unique_keys.size());
}

TEST(SweepEngine, WarmRerunIsBitIdenticalToAFreshRun)
{
    // The rerun takes every ModelCost from the cost cache; a cache hit
    // must not move a bit of any result.
    const auto grid = testGrid();
    SweepEngine warmed({/*numThreads=*/2});
    warmed.run(grid);
    const auto warm = warmed.run(grid);
    EXPECT_EQ(warmed.stats().costCacheMisses, 6u);
    const auto fresh = SweepEngine({/*numThreads=*/2}).run(grid);

    ASSERT_EQ(warm.size(), fresh.size());
    for (size_t i = 0; i < warm.size(); ++i) {
        EXPECT_EQ(std::memcmp(&warm[i].makespanMs, &fresh[i].makespanMs,
                              sizeof(double)),
                  0)
            << grid[i].label();
        ASSERT_EQ(warm[i].sim.trace.size(), fresh[i].sim.trace.size());
        for (size_t t = 0; t < warm[i].sim.trace.size(); ++t) {
            EXPECT_EQ(warm[i].sim.trace[t].id, fresh[i].sim.trace[t].id);
            EXPECT_EQ(std::memcmp(&warm[i].sim.trace[t].start,
                                  &fresh[i].sim.trace[t].start,
                                  sizeof(double)),
                      0);
            EXPECT_EQ(std::memcmp(&warm[i].sim.trace[t].finish,
                                  &fresh[i].sim.trace[t].finish,
                                  sizeof(double)),
                      0);
        }
    }
}

TEST(SweepEngine, DemoGridDegreeSearchesSimulateThePinnedCandidates)
{
    // The demo grid's 24 Tutel, Tutel-Improved and PipeMoE+Lina degree
    // searches, 16 candidates each, on one thread with nothing cached:
    // the release-date bound skips 347 candidates unbuilt, and 9 of the
    // 37 it lets through lose and are cut mid-run. A weaker bound or
    // another visiting order moves these counts. Each search bounds
    // its 16 candidates in one walk of its emitter.
    SweepEngine engine({/*numThreads=*/1});
    const char *const names[] = {
        "schedule.search.candidates", "schedule.search.bounded",
        "schedule.search.simulated", "schedule.search.cut",
        "sim.tasks.executed", "schedule.search.boundWalks"};
    std::vector<uint64_t> before;
    for (const char *name : names)
        before.push_back(stats::counter(name).value());
    const std::vector<ScenarioResult> results = engine.run(demoGrid());
    const std::vector<uint64_t> want = {384, 347, 37, 9, 51145, 24};
    for (size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(stats::counter(names[i]).value() - before[i], want[i])
            << names[i];

    // `fsmoe_sweep --trace/--explain` re-simulate the scenario they
    // show from a fresh ModelCost: that must reproduce the swept
    // record bit for bit.
    ASSERT_EQ(results.size(), 54u);
    const auto same_bits = [](const auto &a, const auto &b) {
        static_assert(sizeof a == sizeof b);
        return std::memcmp(&a, &b, sizeof a) == 0;
    };
    for (const ScenarioResult &r : results) {
        const Scenario &s = r.scenario;
        const sim::SimResult again =
            core::Schedule::create(s.schedule)
                ->simulate(ScenarioRegistry::instance().makeCost(s));
        EXPECT_TRUE(same_bits(again.makespan, r.makespanMs)) << s.label();
        EXPECT_TRUE(same_bits(again.opTime, r.sim.opTime)) << s.label();
        EXPECT_TRUE(same_bits(again.linkBusyMs, r.sim.linkBusyMs))
            << s.label();
    }
}

TEST(SweepEngine, OneScenarioRunsOnTheCallingThreadWithTheSameStats)
{
    const Scenario s = testGrid().front();
    stats::Histogram &wall = stats::histogram("sweep.wall.ms");
    const uint64_t walls = wall.count();

    SweepEngine engine({/*numThreads=*/4});
    const auto one = engine.run({s});
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(wall.count(), walls + 1);
    SweepStats stats = engine.stats();
    EXPECT_EQ(stats.scenariosRun, 1u);
    EXPECT_GT(stats.lastSweepWallMs, 0.0);

    // The result is a two-thread run's, bit for bit.
    SweepEngine two({/*numThreads=*/4});
    const auto both = two.run({s, s});
    EXPECT_EQ(std::memcmp(&one[0].makespanMs, &both[0].makespanMs,
                          sizeof(double)),
              0);
    EXPECT_EQ(two.stats().scenariosRun, 2u);

    // So does a one-thread run of many scenarios, with the results of a
    // four-thread one, bit for bit.
    const std::vector<Scenario> grid = testGrid();
    ASSERT_GT(grid.size(), 1u);
    SweepEngine inline_engine({/*numThreads=*/1});
    const auto inline_results = inline_engine.run(grid);
    EXPECT_EQ(inline_engine.stats().scenariosRun, grid.size());
    SweepEngine four({/*numThreads=*/4});
    const auto four_results = four.run(grid);
    ASSERT_EQ(inline_results.size(), four_results.size());
    for (size_t i = 0; i < grid.size(); ++i) {
        const ScenarioResult &a = inline_results[i];
        const ScenarioResult &b = four_results[i];
        EXPECT_EQ(a.scenario.label(), b.scenario.label());
        EXPECT_EQ(std::memcmp(&a.makespanMs, &b.makespanMs, sizeof(double)),
                  0)
            << a.scenario.label();
        EXPECT_EQ(std::memcmp(a.sim.opTime.data(), b.sim.opTime.data(),
                              sizeof(double) * a.sim.opTime.size()),
                  0)
            << a.scenario.label();
        EXPECT_EQ(std::memcmp(a.sim.linkBusyMs.data(),
                              b.sim.linkBusyMs.data(),
                              sizeof(double) * a.sim.linkBusyMs.size()),
                  0)
            << a.scenario.label();
    }
}

// ----------------------------------------------------------- traces

/**
 * Minimal recursive-descent JSON syntax checker — enough to prove the
 * exported trace is well-formed without a JSON dependency.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool valid()
    {
        skipWs();
        return value() && (skipWs(), pos_ == s_.size());
    }

  private:
    bool value()
    {
        skipWs();
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        for (;;) {
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\')
                ++pos_;
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool number()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool literal(const char *word)
    {
        size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
    void skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    size_t count = 0;
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++count;
    return count;
}

TEST(TraceExport, ChromeJsonIsWellFormedAndCoversEveryTask)
{
    Scenario s;
    s.model = "gpt2xl-moe";
    s.cluster = "testbedB";
    s.schedule = "FSMoE";
    s.numLayers = 2;

    sim::TaskGraph graph;
    const sim::SimResult r = core::Schedule::create(s.schedule)->simulate(
        ScenarioRegistry::instance().makeCost(s), &graph);
    ASSERT_GT(graph.size(), 0u);
    ASSERT_EQ(r.trace.size(), graph.size());

    const std::string json = chromeTraceJson(graph, r, s.label());
    EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);

    // One complete ("X") event per simulated task, no more, no less.
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"X\""), r.trace.size());
    // Metadata rows name the process and every stream.
    EXPECT_EQ(countOccurrences(json, "\"thread_name\""),
              static_cast<size_t>(graph.numStreams()));
    EXPECT_EQ(countOccurrences(json, "\"process_name\""), 1u);
}

TEST(TraceExport, EventsMatchSimulatedTimeline)
{
    Scenario s;
    s.model = "gpt2xl-moe";
    s.cluster = "testbedA";
    s.schedule = "Tutel";
    s.numLayers = 1;

    sim::TaskGraph graph;
    const sim::SimResult r = core::Schedule::create(s.schedule)->simulate(
        ScenarioRegistry::instance().makeCost(s), &graph);

    const auto events = sim::traceEvents(graph, r);
    ASSERT_EQ(events.size(), r.trace.size());
    double last_finish = 0.0;
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].id, r.trace[i].id);
        EXPECT_DOUBLE_EQ(events[i].startMs, r.trace[i].start);
        EXPECT_GE(events[i].durationMs, 0.0);
        last_finish = std::max(last_finish, events[i].startMs +
                                                events[i].durationMs);
    }
    EXPECT_DOUBLE_EQ(last_finish, r.makespan);
}

} // namespace
} // namespace fsmoe::runtime
