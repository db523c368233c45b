#include "runtime/scenario.h"

#include <limits>
#include <sstream>

#include "base/logging.h"
#include "base/number.h"
#include "core/schedules/schedule_registry.h"

namespace fsmoe::runtime {

std::string
Scenario::label() const
{
    std::ostringstream oss;
    oss << model << '/' << cluster << '/' << schedule << "/b" << batch
        << "/L" << seqLen;
    if (numLayers > 0)
        oss << "/l" << numLayers;
    if (numExperts > 0)
        oss << "/e" << numExperts;
    if (rMax != 16)
        oss << "/r" << rMax;
    return oss.str();
}

std::string
Scenario::costKey() const
{
    std::ostringstream oss;
    oss << model << '|' << cluster << '|' << batch << '|' << seqLen << '|'
        << numLayers << '|' << numExperts << '|' << rMax;
    return oss.str();
}

namespace {

const char *const kModelPreset = "model preset";
const char *const kClusterPreset = "cluster preset";

/** Add preset @p name to @p presets (a malformed declaration is a bug). */
template <typename Preset>
void
addPreset(std::map<std::string, Preset> &presets, const char *kind,
          const char *name, decltype(Preset::build) build,
          std::vector<core::ScheduleParamInfo> params = {})
{
    Preset &preset = presets[name];
    std::string error;
    if (!core::ParamDecl::make(kind, {name, {}, "", std::move(params)},
                               &preset.decl, &error))
        FSMOE_PANIC(error);
    preset.build = std::move(build);
}

/**
 * Parse @p text and validate it against its preset in @p presets: the
 * preset, with its validated bag in *params and its canonical spec in
 * *canonical (each optional), or nullptr with *error set. An unknown
 * name's error lists the known ones, sorted (the map's order).
 */
template <typename Preset>
const Preset *
resolvePreset(const std::map<std::string, Preset> &presets,
              const char *kind, const std::string &text,
              core::ScheduleParams *params, std::string *canonical,
              std::string *error)
{
    core::ScheduleSpec spec;
    if (!core::ScheduleSpec::parse(text, &spec, error))
        return nullptr;
    const auto it = presets.find(spec.name);
    if (it == presets.end()) {
        *error = std::string("unknown ") + kind + " '" + spec.name +
                 "'; known:";
        for (const auto &kv : presets)
            error->append(&kv == &*presets.begin() ? " " : ", ")
                .append(kv.first);
        return nullptr;
    }
    return it->second.decl.resolve(spec, params, canonical, error)
               ? &it->second
               : nullptr;
}

} // namespace

ScenarioRegistry &
ScenarioRegistry::instance()
{
    static ScenarioRegistry registry;
    return registry;
}

ScenarioRegistry::ScenarioRegistry()
{
    const auto kInt = core::ScheduleParamType::Int;
    const double none = std::numeric_limits<double>::max();
    // Each builder fixes the shape; makeModel() sets B, L, E and depth.
    addPreset(models_, kModelPreset, "gpt2xl-moe",
              [](auto &) { return model::gpt2XlMoe(0); });
    addPreset(models_, kModelPreset, "mixtral-7b",
              [](auto &) { return model::mixtral7B(0); });
    addPreset(models_, kModelPreset, "mixtral-22b",
              [](auto &) { return model::mixtral22B(0); });
    // One configured layer of the paper's Table 4 grid.
    addPreset(
        models_, kModelPreset, "table4",
        [](const core::ScheduleParams &p) {
            model::ModelSpec spec;
            spec.name = "Table-4 layer";
            spec.layer.numHeads = static_cast<int>(p.getInt("heads", 16));
            spec.layer.embed = p.getInt("embed", 2048);
            spec.layer.hidden = p.getInt("hidden", 6144);
            spec.layer.capacityFactor = p.getDouble("cf", 1.2);
            spec.layer.ffn = p.getBool("swiglu", false)
                                 ? core::FfnType::Mixtral
                                 : core::FfnType::Simple;
            return spec;
        },
        {{"heads", kInt, "16", "attention heads", 1, none, false},
         {"embed", kInt, "2048", "embedding size M", 1, none, false},
         {"hidden", kInt, "6144", "expert hidden size H", 1, none, false},
         {"cf", core::ScheduleParamType::Double, "1.2",
          "capacity factor f; 0 is Table 4's '*'", 0, none, false},
         {"swiglu", core::ScheduleParamType::Bool, "false",
          "SwiGLU (Mixtral-style) experts", 0, 1, false}});

    addPreset(
        clusters_, kClusterPreset, "testbedA",
        [](const core::ScheduleParams &p) {
            sim::ClusterSpec spec = sim::testbedA();
            if (!p.has("nodes"))
                return spec;
            // Ring-based inter-node collectives move (P-1)/P of the data
            // per link; rescale the per-byte terms from the 6-node fit.
            const auto ring = [](int n) {
                return n > 1 ? static_cast<double>(n - 1) / n : 0.5;
            };
            const int nodes = static_cast<int>(p.getInt("nodes", 6));
            const double factor = ring(nodes) / ring(spec.numNodes);
            spec.numNodes = nodes;
            spec.name =
                "Testbed-A scaled to " + std::to_string(nodes) + " nodes";
            spec.alltoall.beta *= factor;
            spec.allreduce.beta *= factor;
            return spec;
        },
        {{"nodes", kInt, "6", "node count, 8 GPUs each", 1, none, false}});
    addPreset(clusters_, kClusterPreset, "testbedB",
              [](auto &) { return sim::testbedB(); });
}

bool
ScenarioRegistry::canonicalizeModel(const std::string &spec,
                                    std::string *out,
                                    std::string *error) const
{
    return resolvePreset(models_, kModelPreset, spec, nullptr, out,
                         error) != nullptr;
}

bool
ScenarioRegistry::canonicalizeCluster(const std::string &spec,
                                      std::string *out,
                                      std::string *error) const
{
    return resolvePreset(clusters_, kClusterPreset, spec, nullptr, out,
                         error) != nullptr;
}

sim::ClusterSpec
ScenarioRegistry::makeCluster(const std::string &spec) const
{
    core::ScheduleParams params;
    std::string error;
    const auto *preset = resolvePreset(clusters_, kClusterPreset, spec,
                                       &params, nullptr, &error);
    if (preset == nullptr)
        FSMOE_FATAL(error);
    return preset->build(params);
}

model::ModelSpec
ScenarioRegistry::makeModel(const Scenario &scenario,
                            const sim::ClusterSpec &cluster) const
{
    core::ScheduleParams params;
    std::string error;
    const auto *preset = resolvePreset(models_, kModelPreset,
                                       scenario.model, &params, nullptr,
                                       &error);
    if (preset == nullptr)
        FSMOE_FATAL(error);
    model::ModelSpec spec = preset->build(params);
    spec.layer.batch = scenario.batch;
    spec.layer.seqLen = scenario.seqLen;
    spec.layer.numExperts = scenario.numExperts > 0 ? scenario.numExperts
                                                    : cluster.numNodes;
    if (scenario.numLayers > 0)
        spec.numLayers = scenario.numLayers;
    return spec;
}

core::ModelCost
ScenarioRegistry::makeCost(const Scenario &scenario) const
{
    sim::ClusterSpec cluster = makeCluster(scenario.cluster);
    model::ModelSpec spec = makeModel(scenario, cluster);
    return model::makeModelCost(spec, cluster,
                                model::paperParallelism(cluster),
                                scenario.rMax);
}

ScenarioGrid &
ScenarioGrid::models(std::vector<std::string> v)
{
    models_ = std::move(v);
    return *this;
}

ScenarioGrid &
ScenarioGrid::clusters(std::vector<std::string> v)
{
    clusters_ = std::move(v);
    return *this;
}

ScenarioGrid &
ScenarioGrid::schedules(std::vector<std::string> v)
{
    schedules_ = std::move(v);
    return *this;
}

ScenarioGrid &
ScenarioGrid::batches(std::vector<int64_t> v)
{
    batches_ = std::move(v);
    return *this;
}

ScenarioGrid &
ScenarioGrid::seqLens(std::vector<int64_t> v)
{
    seq_lens_ = std::move(v);
    return *this;
}

ScenarioGrid &
ScenarioGrid::numLayers(std::vector<int> v)
{
    num_layers_ = std::move(v);
    return *this;
}

ScenarioGrid &
ScenarioGrid::rMax(int r)
{
    FSMOE_CHECK_ARG(r >= 1, "rMax must be >= 1");
    r_max_ = r;
    return *this;
}

std::vector<Scenario>
ScenarioGrid::build() const
{
    // Canonicalize every spec axis up front: unknown names and invalid
    // parameters fail here, once, instead of mid-sweep, and every
    // emitted scenario carries canonical specs so labels and persisted
    // keys are stable regardless of the caller's spelling.
    const ScenarioRegistry &presets = ScenarioRegistry::instance();
    const core::ScheduleRegistry &registry = core::ScheduleRegistry::instance();
    std::vector<std::string> models, clusters, specs;
    std::string error;
    for (const std::string &m : models_)
        if (!presets.canonicalizeModel(m, &models.emplace_back(), &error))
            FSMOE_FATAL("bad model axis: ", error);
    for (const std::string &c : clusters_)
        if (!presets.canonicalizeCluster(c, &clusters.emplace_back(), &error))
            FSMOE_FATAL("bad cluster axis: ", error);
    if (schedules_.empty())
        specs = registry.names();
    for (const std::string &spec : schedules_)
        if (!registry.canonicalize(spec, &specs.emplace_back(), &error))
            FSMOE_FATAL("bad schedule axis: ", error);
    std::vector<Scenario> out;
    out.reserve(models_.size() * clusters_.size() * batches_.size() *
                seq_lens_.size() * num_layers_.size() * specs.size());
    for (const std::string &m : models) {
        for (const std::string &c : clusters) {
            for (int64_t b : batches_) {
                for (int64_t l : seq_lens_) {
                    for (int layers : num_layers_) {
                        for (const std::string &spec : specs) {
                            Scenario s;
                            s.model = m;
                            s.cluster = c;
                            s.schedule = spec;
                            s.batch = b;
                            s.seqLen = l;
                            s.numLayers = layers;
                            s.rMax = r_max_;
                            out.push_back(std::move(s));
                        }
                    }
                }
            }
        }
    }
    return out;
}

bool
parseShardSpec(const std::string &text, ShardSpec *spec,
               std::string *error)
{
    const auto fail = [&](const std::string &why) {
        if (error)
            *error = "bad shard spec '" + text + "': " + why;
        return false;
    };
    const size_t slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= text.size())
        return fail("expected K/N, e.g. 2/4");
    // Both halves parse as int; a value wider than 32 bits is out of
    // range rather than wrapped into a different shard.
    const std::string_view whole(text);
    int k = 0;
    int n = 0;
    const NumberParse pk = parseNumber(whole.substr(0, slash), &k);
    if (!pk && !pk.outOfRange())
        return fail("shard index K is not an integer");
    const NumberParse pn = parseNumber(whole.substr(slash + 1), &n);
    if (!pn && !pn.outOfRange())
        return fail("shard count N is not an integer");
    if (!pk || !pn)
        return fail("value out of range (must fit a 32-bit int)");
    if (n < 1)
        return fail("shard count N must be >= 1");
    if (k < 1 || k > n)
        return fail("shard index K must be in [1, N]");
    spec->index = k;
    spec->count = n;
    return true;
}

std::vector<Scenario>
demoGrid(const std::vector<int64_t> &batches,
         const std::vector<std::string> &schedules)
{
    // Sequence lengths follow the paper's per-testbed settings
    // (L = 1024 on Testbed A, 256 on B), so build one sub-grid per
    // cluster and concatenate.
    auto a = ScenarioGrid()
                 .models({"gpt2xl-moe", "mixtral-7b"})
                 .clusters({"testbedA"})
                 .seqLens({1024})
                 .batches(batches)
                 .schedules(schedules)
                 .build();
    auto b = ScenarioGrid()
                 .models({"gpt2xl-moe", "mixtral-7b"})
                 .clusters({"testbedB"})
                 .seqLens({256})
                 .batches(batches)
                 .schedules(schedules)
                 .build();
    a.insert(a.end(), b.begin(), b.end());
    if (schedules.empty()) {
        auto degrees = ScenarioGrid()
                           .models({"gpt2xl-moe"})
                           .clusters({"testbedA"})
                           .seqLens({1024})
                           .batches(batches)
                           .schedules({"tutel?degree=2", "tutel?degree=4",
                                       "tutel?degree=8"})
                           .build();
        a.insert(a.end(), degrees.begin(), degrees.end());
    }
    return a;
}

std::vector<Scenario>
shardScenarios(const std::vector<Scenario> &scenarios,
               const ShardSpec &shard)
{
    FSMOE_CHECK_ARG(shard.count >= 1 && shard.index >= 1 &&
                        shard.index <= shard.count,
                    "shard ", shard.index, "/", shard.count,
                    " out of range");
    const size_t size = scenarios.size();
    const size_t n = static_cast<size_t>(shard.count);
    const size_t k = static_cast<size_t>(shard.index);
    const size_t begin = size * (k - 1) / n;
    const size_t end = size * k / n;
    return std::vector<Scenario>(scenarios.begin() + begin,
                                 scenarios.begin() + end);
}

} // namespace fsmoe::runtime
