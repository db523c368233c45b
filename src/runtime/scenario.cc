#include "runtime/scenario.h"

#include <algorithm>
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

ScenarioRegistry &
ScenarioRegistry::instance()
{
    static ScenarioRegistry registry;
    return registry;
}

ScenarioRegistry::ScenarioRegistry()
{
    models_["gpt2xl-moe"] = [](int e, int64_t b, int64_t l, int layers) {
        return model::gpt2XlMoe(e, b, l, layers > 0 ? layers : 24);
    };
    models_["mixtral-7b"] = [](int e, int64_t b, int64_t l, int layers) {
        return model::mixtral7B(e, b, l, layers > 0 ? layers : 32);
    };
    models_["mixtral-22b"] = [](int e, int64_t b, int64_t l, int layers) {
        return model::mixtral22B(e, b, l, layers > 0 ? layers : 33);
    };
    clusters_["testbedA"] = []() { return sim::testbedA(); };
    clusters_["testbedB"] = []() { return sim::testbedB(); };
}

bool
ScenarioRegistry::hasModel(const std::string &name) const
{
    return models_.count(name) > 0;
}

bool
ScenarioRegistry::hasCluster(const std::string &name) const
{
    return clusters_.count(name) > 0;
}

std::vector<std::string>
ScenarioRegistry::modelNames() const
{
    std::vector<std::string> names;
    names.reserve(models_.size());
    for (const auto &kv : models_)
        names.push_back(kv.first);
    // The registry map is unordered; without this sort the list would
    // come back in hash order, which varies with insertion history.
    std::sort(names.begin(), names.end());
    return names;
}

std::vector<std::string>
ScenarioRegistry::clusterNames() const
{
    std::vector<std::string> names;
    names.reserve(clusters_.size());
    for (const auto &kv : clusters_)
        names.push_back(kv.first);
    // See modelNames(): sorted so callers never observe hash order.
    std::sort(names.begin(), names.end());
    return names;
}

sim::ClusterSpec
ScenarioRegistry::makeCluster(const std::string &name) const
{
    auto it = clusters_.find(name);
    FSMOE_CHECK_ARG(it != clusters_.end(), "unknown cluster preset '", name,
                    "'");
    return it->second();
}

model::ModelSpec
ScenarioRegistry::makeModel(const Scenario &scenario,
                            const sim::ClusterSpec &cluster) const
{
    auto it = models_.find(scenario.model);
    FSMOE_CHECK_ARG(it != models_.end(), "unknown model preset '",
                    scenario.model, "'");
    const int experts = scenario.numExperts > 0 ? scenario.numExperts
                                                : cluster.numNodes;
    return it->second(experts, scenario.batch, scenario.seqLen,
                      scenario.numLayers);
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
    // Canonicalize the schedule axis up front: unknown schedules and
    // invalid parameters fail here, once, instead of mid-sweep, and
    // every emitted scenario carries the canonical spec so labels and
    // persisted keys are stable regardless of the caller's spelling.
    std::vector<std::string> specs;
    if (schedules_.empty()) {
        specs = core::ScheduleRegistry::instance().names();
    } else {
        specs.reserve(schedules_.size());
        for (const std::string &spec : schedules_) {
            std::string canonical, error;
            if (!core::ScheduleRegistry::instance().canonicalize(
                    spec, &canonical, &error))
                FSMOE_FATAL("bad schedule axis: ", error);
            specs.push_back(std::move(canonical));
        }
    }
    std::vector<Scenario> out;
    out.reserve(models_.size() * clusters_.size() * batches_.size() *
                seq_lens_.size() * num_layers_.size() * specs.size());
    for (const std::string &m : models_) {
        for (const std::string &c : clusters_) {
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
