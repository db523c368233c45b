/**
 * @file
 * Tests for the open schedule-plugin API: spec parsing and
 * canonicalization, alias/case/separator normalization, parameter
 * validation error paths, duplicate-registration rejection, parameter
 * effects on built graphs, and concurrent registry use.
 *
 * Registrations are process-wide, so every plugin this file registers
 * uses a test-unique name; tests must not assume the registry holds
 * *only* the built-ins.
 */
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/schedules/schedule.h"
#include "core/schedules/schedule_registry.h"
#include "model/models.h"
#include "sim/cluster.h"

namespace fsmoe::core {
namespace {

ModelCost
smallModel(int layers = 2)
{
    sim::ClusterSpec cluster = sim::testbedB();
    LayerShape shape;
    shape.batch = 2;
    shape.seqLen = 512;
    shape.embed = 2048;
    shape.hidden = 6144;
    shape.numExperts = cluster.numNodes;
    ParallelConfig par = model::paperParallelism(cluster);
    ModelCost cost;
    cost.models = PerfModelSet::fromCluster(cluster);
    for (int i = 0; i < layers; ++i)
        cost.layers.push_back(makeLayerCost(cost.models, shape, par));
    return cost;
}

/** A do-nothing schedule for registration-only tests. */
class NullSchedule : public Schedule
{
  public:
    sim::TaskGraph build(const ModelCost &) const override
    {
        sim::TaskGraph graph;
        graph.addTask("noop", sim::OpType::Other, sim::Link::Compute, 0,
                      1.0, {});
        return graph;
    }
};

ScheduleRegistry::Factory
nullFactory()
{
    return [](const ScheduleParams &) {
        return std::make_unique<NullSchedule>();
    };
}

// ------------------------------------------------------------ builtins

TEST(ScheduleRegistry, BuiltinsRegisteredInPaperOrder)
{
    const auto names = ScheduleRegistry::instance().names();
    ASSERT_GE(names.size(), 6u);
    const std::vector<std::string> paper = {
        "DS-MoE",       "Tutel",        "Tutel-Improved",
        "PipeMoE+Lina", "FSMoE-No-IIO", "FSMoE"};
    for (size_t i = 0; i < paper.size(); ++i)
        EXPECT_EQ(names[i], paper[i]);
}

TEST(ScheduleRegistry, NormalizationAcceptsAliasesCaseAndSeparators)
{
    ScheduleRegistry &reg = ScheduleRegistry::instance();
    // Canonical, alias, odd case, separators dropped or swapped.
    for (const char *name :
         {"FSMoE", "fsmoe", "fs-moe", "FS MOE", "DS-MoE", "dsmoe",
          "DeepSpeed", "sequential", "Tutel Improved", "tutelimproved",
          "TUTEL-IMPROVED", "PipeMoE+Lina", "pipemoe-lina", "LINA",
          "no-iio", "FSMoE_No_IIO", "pipemoe"})
        EXPECT_TRUE(reg.has(name)) << name;
    EXPECT_FALSE(reg.has("bogus"));
    EXPECT_FALSE(reg.has(""));

    // Aliases resolve to the same plugin as the canonical name.
    ScheduleInfo by_alias, by_name;
    ASSERT_TRUE(reg.info("lina", &by_alias));
    ASSERT_TRUE(reg.info("PipeMoE+Lina", &by_name));
    EXPECT_EQ(by_alias.name, by_name.name);
}

// ------------------------------------------------- spec parsing errors

TEST(ScheduleRegistry, UnknownScheduleReportsKnownNames)
{
    std::string error;
    EXPECT_EQ(ScheduleRegistry::instance().tryCreate("warp-speed", &error),
              nullptr);
    EXPECT_NE(error.find("unknown schedule 'warp-speed'"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("FSMoE"), std::string::npos) << error;
    EXPECT_NE(error.find("DS-MoE"), std::string::npos) << error;
}

TEST(ScheduleRegistry, MalformedSpecsAreRejected)
{
    ScheduleRegistry &reg = ScheduleRegistry::instance();
    std::string canonical, error;
    // Empty name, with and without params.
    EXPECT_FALSE(reg.canonicalize("", &canonical, &error));
    EXPECT_FALSE(reg.canonicalize("?degree=4", &canonical, &error));
    // Parameter segment without '=' or without a key.
    EXPECT_FALSE(reg.canonicalize("tutel?degree", &canonical, &error));
    EXPECT_NE(error.find("key=value"), std::string::npos) << error;
    EXPECT_FALSE(reg.canonicalize("tutel?=4", &canonical, &error));
    // Empty parameter list after '?'.
    EXPECT_FALSE(reg.canonicalize("tutel?", &canonical, &error));
    // Duplicate key.
    EXPECT_FALSE(
        reg.canonicalize("tutel?degree=2&degree=4", &canonical, &error));
    EXPECT_NE(error.find("duplicate parameter"), std::string::npos)
        << error;
}

TEST(ScheduleRegistry, UnknownAndInvalidParamsAreRejected)
{
    ScheduleRegistry &reg = ScheduleRegistry::instance();
    std::string error;
    // Unknown key, with the declared ones listed.
    EXPECT_EQ(reg.tryCreate("tutel?chunkMB=30", &error), nullptr);
    EXPECT_NE(error.find("no parameter 'chunkMB'"), std::string::npos)
        << error;
    EXPECT_NE(error.find("degree"), std::string::npos) << error;
    // Value that does not parse as the declared type.
    EXPECT_EQ(reg.tryCreate("tutel?degree=abc", &error), nullptr);
    EXPECT_NE(error.find("expected an integer"), std::string::npos)
        << error;
    EXPECT_EQ(reg.tryCreate("tutel?degree=4.5", &error), nullptr);
    EXPECT_EQ(reg.tryCreate("lina?chunkMB=big", &error), nullptr);
    EXPECT_NE(error.find("expected a number"), std::string::npos) << error;
    EXPECT_EQ(reg.tryCreate("fsmoe?step2=maybe", &error), nullptr);
    EXPECT_NE(error.find("expected true/false"), std::string::npos)
        << error;
    // Bound violations.
    EXPECT_EQ(reg.tryCreate("tutel?degree=-1", &error), nullptr);
    EXPECT_NE(error.find("must be >="), std::string::npos) << error;
    EXPECT_EQ(reg.tryCreate("lina?chunkMB=0", &error), nullptr);
    // Int values wider than 32 bits would silently wrap to a
    // different configuration than the spec claims; reject them —
    // both the in-int64-range case and one beyond int64.
    EXPECT_EQ(reg.tryCreate("tutel?degree=4294967298", &error), nullptr);
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
    EXPECT_EQ(reg.tryCreate("tutel?degree=9223372036854775807999",
                            &error),
              nullptr);
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
    // One number grammar (base/number.h): no sign, base prefix or hex
    // float, and no double beyond binary64's range.
    EXPECT_EQ(reg.tryCreate("tutel?degree=+4", &error), nullptr);
    EXPECT_NE(error.find("expected an integer"), std::string::npos)
        << error;
    EXPECT_EQ(reg.tryCreate("tutel?degree=0x4", &error), nullptr);
    EXPECT_EQ(reg.tryCreate("lina?chunkMB=0x1e", &error), nullptr);
    EXPECT_NE(error.find("expected a number"), std::string::npos) << error;
    EXPECT_EQ(reg.tryCreate("lina?chunkMB=+30", &error), nullptr);
    EXPECT_EQ(reg.tryCreate("lina?chunkMB=1e999", &error), nullptr);
    EXPECT_EQ(reg.tryCreate("lina?chunkMB=1e-400", &error), nullptr);
    // Non-finite doubles sneak past a plain bound check (NaN compares
    // false against everything); they must be rejected.
    EXPECT_EQ(reg.tryCreate("lina?chunkMB=nan", &error), nullptr);
    EXPECT_NE(error.find("finite"), std::string::npos) << error;
    EXPECT_EQ(reg.tryCreate("lina?chunkMB=inf", &error), nullptr);
    EXPECT_EQ(reg.tryCreate("lina?chunkMB=-inf", &error), nullptr);
}

// ----------------------------------------------------- canonical specs

TEST(ScheduleRegistry, CanonicalizeNormalizesNameKeysAndValues)
{
    ScheduleRegistry &reg = ScheduleRegistry::instance();
    std::string canonical, error;

    ASSERT_TRUE(reg.canonicalize("fsmoe", &canonical, &error)) << error;
    EXPECT_EQ(canonical, "FSMoE");
    ASSERT_TRUE(reg.canonicalize("lina", &canonical, &error)) << error;
    EXPECT_EQ(canonical, "PipeMoE+Lina");

    // Case-folded name and key, whitespace, leading-zero value.
    ASSERT_TRUE(reg.canonicalize(" TUTEL ? DEGREE = 04 ", &canonical,
                                 &error))
        << error;
    EXPECT_EQ(canonical, "Tutel?degree=4");

    // Params re-serialize canonically and land in declared order
    // regardless of the order given.
    ASSERT_TRUE(reg.canonicalize("lina?degree=2&chunkmb=60.0", &canonical,
                                 &error))
        << error;
    EXPECT_EQ(canonical, "PipeMoE+Lina?chunkMB=60&degree=2");

    // Bool values normalize across spellings.
    ASSERT_TRUE(reg.canonicalize("fsmoe?step2=Yes", &canonical, &error))
        << error;
    EXPECT_EQ(canonical, "FSMoE?step2=true");
    ASSERT_TRUE(reg.canonicalize("fsmoe?step2=0", &canonical, &error))
        << error;
    EXPECT_EQ(canonical, "FSMoE?step2=false");

    // An explicitly-given default is preserved, keeping the spec
    // distinct from the bare name as a sweep key.
    ASSERT_TRUE(reg.canonicalize("tutel?degree=0", &canonical, &error))
        << error;
    EXPECT_EQ(canonical, "Tutel?degree=0");
}

TEST(ScheduleRegistry, CreateSetsCanonicalNameAndSpec)
{
    auto plain = Schedule::create("fsmoe");
    EXPECT_EQ(plain->name(), "FSMoE");
    EXPECT_EQ(plain->spec(), "FSMoE");

    auto tuned = Schedule::create("TUTEL?degree=4");
    EXPECT_EQ(tuned->name(), "Tutel");
    EXPECT_EQ(tuned->spec(), "Tutel?degree=4");
}

// ------------------------------------------------ duplicate registration

TEST(ScheduleRegistry, DuplicateAndInvalidRegistrationsAreRejected)
{
    ScheduleRegistry &reg = ScheduleRegistry::instance();

    // Colliding with a built-in canonical name, an alias of one, and a
    // spelling that normalizes to one.
    for (const char *name : {"FSMoE", "lina", "F-S-M-O-E"}) {
        ScheduleInfo info;
        info.name = name;
        EXPECT_FALSE(reg.registerSchedule(info, nullFactory())) << name;
    }
    // An alias colliding with a built-in also rejects the whole plugin.
    {
        ScheduleInfo info;
        info.name = "registry-test-collider";
        info.aliases = {"tutel"};
        EXPECT_FALSE(reg.registerSchedule(info, nullFactory()));
        EXPECT_FALSE(reg.has("registry-test-collider"));
    }
    // Empty name, null factory, malformed parameter declarations.
    {
        ScheduleInfo info;
        info.name = "  ";
        EXPECT_FALSE(reg.registerSchedule(info, nullFactory()));
    }
    {
        ScheduleInfo info;
        info.name = "registry-test-nullfactory";
        EXPECT_FALSE(reg.registerSchedule(info, nullptr));
    }
    {
        ScheduleInfo info;
        info.name = "registry-test-badparam";
        info.params = {{"", ScheduleParamType::Int, "0", "", 0.0}};
        EXPECT_FALSE(reg.registerSchedule(info, nullFactory()));
        info.params = {{"k", ScheduleParamType::Int, "zero", "", 0.0}};
        EXPECT_FALSE(reg.registerSchedule(info, nullFactory()));
        info.params = {{"k", ScheduleParamType::Int, "1", "", 0.0},
                       {"K", ScheduleParamType::Int, "1", "", 0.0}};
        EXPECT_FALSE(reg.registerSchedule(info, nullFactory()));
    }

    // A valid registration succeeds once, then collides with itself.
    ScheduleInfo info;
    info.name = "registry-test-dup";
    EXPECT_TRUE(reg.registerSchedule(info, nullFactory()));
    EXPECT_FALSE(reg.registerSchedule(info, nullFactory()));
    EXPECT_TRUE(reg.has("registry-test-dup"));
}

// ------------------------------------------------- parameters in action

/** Count tasks whose name starts with @p prefix. */
size_t
countTasks(const sim::TaskGraph &graph, const std::string &prefix)
{
    size_t n = 0;
    for (const sim::Task &t : graph.tasks())
        n += t.name().compare(0, prefix.size(), prefix) == 0 ? 1 : 0;
    return n;
}

TEST(ScheduleRegistry, TutelDegreeParamPinsThePipelineDegree)
{
    const ModelCost cost = smallModel(1);
    // One layer, forward + backward: r dispatch chunks ("d0".."d<r-1>")
    // per phase.
    for (int r : {2, 5}) {
        auto sched =
            Schedule::create("tutel?degree=" + std::to_string(r));
        sim::TaskGraph graph = sched->build(cost);
        EXPECT_EQ(countTasks(graph, "d"), 2u * r) << "degree " << r;
    }
}

TEST(ScheduleRegistry, LinaChunkParamControlsGradientBuckets)
{
    const ModelCost cost = smallModel(3);
    auto small = Schedule::create("lina?chunkMB=8&degree=2");
    auto large = Schedule::create("lina?chunkMB=64&degree=2");
    const size_t small_chunks = countTasks(small->build(cost), "gar");
    const size_t large_chunks = countTasks(large->build(cost), "gar");
    EXPECT_GT(small_chunks, large_chunks);
    EXPECT_GE(large_chunks, 1u);
}

TEST(ScheduleRegistry, ParamBagExposesTypedValuesToFactories)
{
    ScheduleRegistry &reg = ScheduleRegistry::instance();
    ScheduleInfo info;
    info.name = "registry-test-probe";
    info.params = {
        {"count", ScheduleParamType::Int, "1", "", 0.0},
        {"scale", ScheduleParamType::Double, "1.5", "", 0.0},
        {"flag", ScheduleParamType::Bool, "false", "", 0.0},
    };
    ScheduleParams seen;
    ASSERT_TRUE(reg.registerSchedule(
        info, [&seen](const ScheduleParams &p) {
            seen = p;
            return std::make_unique<NullSchedule>();
        }));

    auto sched = reg.create(
        "registry-test-probe?count=7&scale=2.25&flag=on");
    ASSERT_NE(sched, nullptr);
    EXPECT_EQ(sched->spec(), "registry-test-probe?count=7&scale=2.25&"
                             "flag=true");
    EXPECT_TRUE(seen.has("count"));
    EXPECT_TRUE(seen.has("COUNT")) << "key lookup is normalized";
    EXPECT_EQ(seen.getInt("count", -1), 7);
    EXPECT_DOUBLE_EQ(seen.getDouble("scale", 0.0), 2.25);
    EXPECT_TRUE(seen.getBool("flag", false));
    // Absent keys fall back.
    EXPECT_FALSE(seen.has("missing"));
    EXPECT_EQ(seen.getInt("missing", 42), 42);

    // Defaults only: the factory sees an empty bag.
    sched = reg.create("registry-test-probe");
    EXPECT_FALSE(seen.has("count"));
    EXPECT_EQ(seen.getInt("count", 1), 1);
}

// ------------------------------------------------------- bounds (max)

TEST(ScheduleRegistry, UpperBoundsAreEnforcedWithTheParamName)
{
    ScheduleRegistry &reg = ScheduleRegistry::instance();
    std::string error;
    // degree declares max 16 (the demo rMax ceiling).
    EXPECT_EQ(reg.tryCreate("tutel?degree=17", &error), nullptr);
    EXPECT_NE(error.find("must be <= 16"), std::string::npos) << error;
    EXPECT_NE(error.find("'degree'"), std::string::npos) << error;
    EXPECT_NE(reg.tryCreate("tutel?degree=16", &error), nullptr) << error;
    // chunkMB declares max 1024.
    EXPECT_EQ(reg.tryCreate("lina?chunkMB=1025", &error), nullptr);
    EXPECT_NE(error.find("must be <= 1024"), std::string::npos) << error;
    EXPECT_NE(error.find("'chunkMB'"), std::string::npos) << error;

    // A default outside [min, max], or min > max, rejects registration.
    ScheduleInfo info;
    info.name = "registry-test-maxbound";
    info.params = {{"k", ScheduleParamType::Int, "9", "", 0.0, 8.0}};
    EXPECT_FALSE(reg.registerSchedule(info, nullFactory()));
    info.params = {{"k", ScheduleParamType::Int, "4", "", 8.0, 0.0}};
    EXPECT_FALSE(reg.registerSchedule(info, nullFactory()));
    info.params = {{"k", ScheduleParamType::Int, "4", "", 0.0, 8.0}};
    EXPECT_TRUE(reg.registerSchedule(info, nullFactory()));
}

// -------------------------------------------------------- typed values

TEST(ScheduleRegistry, TypedValuesAreCheckedAndCanonicalizedLikeSpecText)
{
    ScheduleRegistry &reg = ScheduleRegistry::instance();
    const double inf = std::numeric_limits<double>::infinity();
    struct Case
    {
        std::string text; ///< The spec the typed bag spells.
        std::string name;
        ScheduleParams params;
    };
    // Out of range, beyond 32 bits, non-finite, the wrong type, an
    // unknown key or schedule: rejected with the spec text's message.
    const std::vector<Case> rejected = {
        {"tutel?degree=17", "tutel", ScheduleParams().setInt("degree", 17)},
        {"tutel?degree=-1", "Tutel", ScheduleParams().setInt("degree", -1)},
        {"tutel?degree=4294967298", "Tutel",
         ScheduleParams().setInt("degree", 4294967298)},
        {"lina?chunkMB=1025", "lina",
         ScheduleParams().setDouble("chunkMB", 1025.0)},
        {"lina?chunkMB=0", "lina", ScheduleParams().setInt("chunkMB", 0)},
        {"lina?chunkMB=nan", "lina",
         ScheduleParams().setDouble(
             "chunkMB", std::numeric_limits<double>::quiet_NaN())},
        {"lina?chunkMB=inf", "lina",
         ScheduleParams().setDouble("chunkMB", inf)},
        {"lina?chunkMB=-inf", "lina",
         ScheduleParams().setDouble("chunkMB", -inf)},
        {"tutel?degree=4.5", "Tutel",
         ScheduleParams().setDouble("degree", 4.5)},
        {"tutel?degree=true", "Tutel",
         ScheduleParams().setBool("degree", true)},
        {"fsmoe?step2=1.5", "FSMoE", ScheduleParams().setDouble("step2", 1.5)},
        {"tutel?chunkMB=30", "Tutel", ScheduleParams().setInt("chunkMB", 30)},
        {"warp-speed", "warp-speed", ScheduleParams()},
    };
    for (const Case &c : rejected) {
        std::string text_error, typed_error;
        EXPECT_EQ(reg.tryCreate(c.text, &text_error), nullptr) << c.text;
        EXPECT_EQ(reg.tryCreate(c.name, c.params, &typed_error), nullptr)
            << c.text;
        EXPECT_FALSE(typed_error.empty()) << c.text;
        EXPECT_EQ(typed_error, text_error) << c.text;
    }

    // Accepted: the canonical spec is the spec text's, whatever the
    // key spelling and order; an Int converts to a Double param; a key
    // given twice keeps its last value.
    const std::vector<Case> accepted = {
        {"lina?degree=2&chunkMB=60", "PipeMoE+Lina",
         ScheduleParams().setInt("DEGREE", 2).setInt("chunk-mb", 60)},
        {"lina?chunkMB=0.1", "lina",
         ScheduleParams().setDouble("chunkMB", 0.1)},
        {"tutel?degree=4", "tutel",
         ScheduleParams().setInt("degree", 9).setInt("Degree", 4)},
        {"fsmoe?step2=off", "FSMoE", ScheduleParams().setBool("step2", false)},
        {"DS-MoE", "dsmoe", ScheduleParams()},
    };
    for (const Case &c : accepted) {
        std::string error;
        const auto typed = reg.tryCreate(c.name, c.params, &error);
        ASSERT_NE(typed, nullptr) << c.text << ": " << error;
        const auto text = Schedule::create(c.text);
        EXPECT_EQ(typed->spec(), text->spec()) << c.text;
        EXPECT_EQ(typed->name(), text->name()) << c.text;
    }
}

// ------------------------------------------------- fuzz: canonical specs

/**
 * Property test over random parameter bags: any spec the registry
 * accepts must round-trip exactly (create -> canonical spec ->
 * re-parse -> identical spec and identical canonicalization), and any
 * out-of-bounds value must be rejected with the parameter's canonical
 * name in the message. Runs against a test plugin covering all three
 * param types plus every built-in schedule.
 */
TEST(ScheduleRegistry, FuzzRandomParamBagsRoundTripOrFailWithParamName)
{
    ScheduleRegistry &reg = ScheduleRegistry::instance();
    ScheduleInfo info;
    info.name = "registry-test-fuzz";
    info.params = {
        {"count", ScheduleParamType::Int, "3", "", 1.0, 64.0},
        {"scale", ScheduleParamType::Double, "1.5", "", 0.25, 8.0},
        {"flag", ScheduleParamType::Bool, "false", ""},
    };
    ASSERT_TRUE(reg.registerSchedule(info, nullFactory()));

    std::mt19937_64 rng(0xf5a0e7u);
    std::uniform_int_distribution<int> count_dist(-8, 80);
    std::uniform_real_distribution<double> scale_dist(-1.0, 10.0);
    std::uniform_int_distribution<int> coin(0, 1);

    int accepted = 0;
    int rejected = 0;
    for (int iter = 0; iter < 400; ++iter) {
        const int count = count_dist(rng);
        const double scale = scale_dist(rng);
        const bool flag = coin(rng) == 1;
        char scale_text[32];
        std::snprintf(scale_text, sizeof scale_text, "%.17g", scale);
        const std::string spec =
            "registry-test-fuzz?count=" + std::to_string(count) +
            "&scale=" + scale_text + "&flag=" + (flag ? "on" : "0");
        const bool in_bounds = count >= 1 && count <= 64 &&
                               scale >= 0.25 && scale <= 8.0;

        std::string error;
        auto sched = reg.tryCreate(spec, &error);
        if (!in_bounds) {
            ++rejected;
            ASSERT_EQ(sched, nullptr) << spec;
            // The offending parameter is named canonically.
            const bool names_param =
                error.find(count < 1 || count > 64 ? "'count'"
                                                   : "'scale'") !=
                std::string::npos;
            EXPECT_TRUE(names_param) << spec << " -> " << error;
            continue;
        }
        ++accepted;
        ASSERT_NE(sched, nullptr) << spec << " -> " << error;

        // Round trip 1: the canonical spec re-parses to itself.
        const std::string canonical = sched->spec();
        std::string recanonical;
        ASSERT_TRUE(reg.canonicalize(canonical, &recanonical, &error))
            << canonical << " -> " << error;
        EXPECT_EQ(recanonical, canonical) << spec;

        // Round trip 2: re-creating from the canonical spec yields the
        // same schedule identity (name + spec), bit-exact doubles
        // included.
        auto again = reg.tryCreate(canonical, &error);
        ASSERT_NE(again, nullptr) << canonical << " -> " << error;
        EXPECT_EQ(again->spec(), canonical);
        EXPECT_EQ(again->name(), sched->name());
    }
    // The ranges above make both outcomes common; guard the generator.
    EXPECT_GT(accepted, 50);
    EXPECT_GT(rejected, 50);

    // The built-ins round-trip too, across their whole declared grid.
    for (const ScheduleInfo &builtin : reg.list()) {
        for (int variant = 0; variant < 8; ++variant) {
            std::string spec = builtin.name;
            char sep = '?';
            for (const ScheduleParamInfo &p : builtin.params) {
                if (p.type != ScheduleParamType::Bool && !p.bounded())
                    continue;
                const double frac = variant / 7.0;
                std::string value;
                if (p.type == ScheduleParamType::Bool) {
                    value = variant % 2 == 0 ? "false" : "true";
                } else if (p.type == ScheduleParamType::Int) {
                    value = std::to_string(static_cast<int64_t>(
                        p.minValue + frac * (p.maxValue - p.minValue)));
                } else {
                    char buf[32];
                    std::snprintf(buf, sizeof buf, "%.17g",
                                  p.minValue +
                                      frac * (p.maxValue - p.minValue));
                    value = buf;
                }
                spec += sep;
                spec += p.key + "=" + value;
                sep = '&';
            }
            std::string canonical, recanonical, error;
            ASSERT_TRUE(reg.canonicalize(spec, &canonical, &error))
                << spec << " -> " << error;
            ASSERT_TRUE(reg.canonicalize(canonical, &recanonical, &error))
                << canonical << " -> " << error;
            EXPECT_EQ(recanonical, canonical) << spec;
        }
    }
}

// ----------------------------------------------------------- threading

TEST(ScheduleRegistry, ConcurrentLookupsAndRegistrationsAreSafe)
{
    ScheduleRegistry &reg = ScheduleRegistry::instance();
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;

    // Readers: create, canonicalize, and list concurrently.
    for (int t = 0; t < 6; ++t) {
        threads.emplace_back([&reg, &failures, t]() {
            for (int i = 0; i < 200; ++i) {
                std::string canonical, error;
                if (!reg.canonicalize("tutel?degree=" +
                                          std::to_string(i % 8),
                                      &canonical, &error))
                    ++failures;
                if (!reg.has("fsmoe"))
                    ++failures;
                auto sched = reg.tryCreate(
                    (t % 2) == 0 ? "lina?chunkMB=16" : "DS-MoE", &error);
                if (sched == nullptr || sched->name().empty())
                    ++failures;
                if (reg.names().size() < 6u)
                    ++failures;
            }
        });
    }
    // Writers: register fresh plugins while the readers run.
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&reg, &failures, t]() {
            for (int i = 0; i < 50; ++i) {
                ScheduleInfo info;
                info.name = "registry-test-concurrent-" +
                            std::to_string(t) + "-" + std::to_string(i);
                if (!reg.registerSchedule(info, nullFactory()))
                    ++failures;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_TRUE(reg.has("registry-test-concurrent-0-49"));
    EXPECT_TRUE(reg.has("registry-test-concurrent-1-0"));
}

// ------------------------------------------------------ out-of-tree use

TEST(ScheduleRegistry, RegistrarRegistersAndScheduleRunsEndToEnd)
{
    // The ScheduleRegistrar path out-of-tree plugins use (see
    // examples/schedule_explorer.cpp), driven explicitly here.
    ScheduleInfo info;
    info.name = "registry-test-registrar";
    info.description = "trivial custom schedule";
    const ScheduleRegistrar registrar(info, nullFactory());

    ASSERT_TRUE(ScheduleRegistry::instance().has("registry-test-registrar"));
    auto sched = Schedule::create("registry-test-registrar");
    EXPECT_EQ(sched->name(), "registry-test-registrar");
    EXPECT_GT(sched->iterationTimeMs(smallModel(1)), 0.0);
}

} // namespace
} // namespace fsmoe::core
