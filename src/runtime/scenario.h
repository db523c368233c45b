/**
 * @file
 * Scenario specifications for the sweep runtime.
 *
 * A Scenario names everything needed to price one training iteration:
 * a model preset, a cluster preset, a schedule, and the workload knobs
 * (batch, sequence length, layer/expert counts). Presets are resolved
 * through a ScenarioRegistry, and ScenarioGrid enumerates
 * cartesian-product sweeps in a deterministic order.
 *
 * Preset specs take the schedule grammar ("name?key=value&key=value",
 * core/schedules/schedule_registry.h) through its parser and
 * validator, core::ParamDecl. Names match exactly, keys in any case:
 *
 *     table4    one Table 4 layer (1 deep unless numLayers says):
 *               heads=16, embed=2048, hidden=6144 (ints >= 1),
 *               cf=1.2 (>= 0; 0 is the paper's "*"), swiglu=false
 *     testbedA  nodes=6 (>= 1): inter-node betas rescaled by ring steps
 *
 * (defaults shown); gpt2xl-moe, mixtral-7b, mixtral-22b and testbedB
 * declare no keys. A bare name keeps its label, cost key and bytes.
 *
 * Thread-safety: ScenarioRegistry's presets are fixed when its
 * instance is built and never change, so its const methods are safe to
 * call from any thread without a lock. Scenario and ScenarioGrid
 * are plain value types with no internal synchronisation — share them
 * across threads only as read-only data.
 *
 * Determinism: ScenarioGrid::build() depends only on the configured
 * axes (nested-loop order, no hashing), so the same grid builds the
 * same scenario list in the same order in every process, which is
 * what makes persisted sweep results diffable across machines and
 * shardScenarios() slices stable.
 */
#ifndef FSMOE_RUNTIME_SCENARIO_H
#define FSMOE_RUNTIME_SCENARIO_H

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/schedules/schedule.h"
#include "core/schedules/schedule_registry.h"
#include "model/models.h"
#include "sim/cluster.h"

namespace fsmoe::runtime {

/** One (model, cluster, schedule, knobs) evaluation point. */
struct Scenario
{
    /// Model preset spec ("mixtral-7b", "table4?heads=8&cf=2.5"), in
    /// canonical spelling as for schedule (ScenarioRegistry).
    std::string model;
    /// Cluster preset spec ("testbedB", "testbedA?nodes=4"), likewise.
    std::string cluster;
    /// Schedule spec resolved through core::ScheduleRegistry — a
    /// canonical name, alias, or parameterized variant such as
    /// "Tutel?degree=4". Use the canonical spelling (what
    /// ScheduleRegistry::canonicalize returns; ScenarioGrid::build
    /// canonicalizes for you) so labels, cache keys, and persisted
    /// result keys stay stable.
    std::string schedule = "FSMoE";
    int64_t batch = 1;    ///< B: samples per GPU.
    int64_t seqLen = 1024; ///< L: tokens per sample.
    int numLayers = 0;    ///< Generalized layers; 0 = preset default.
    int numExperts = 0;   ///< E; 0 = one expert per node (paper rule).
    int rMax = 16;        ///< Largest pipeline degree schedules may use.

    /** Human-readable id, e.g. "mixtral-7b/testbedA/FSMoE/b1/L1024". */
    std::string label() const;

    /**
     * Key identifying the ModelCost this scenario needs: every field
     * except the schedule, so all schedules of one configuration share
     * a single cached cost evaluation.
     */
    std::string costKey() const;
};

/**
 * The model and cluster presets of the file comment, selected by spec.
 * Immutable, so thread-safe.
 */
class ScenarioRegistry
{
  public:
    /** The process-wide registry. */
    static ScenarioRegistry &instance();

    /**
     * core::ScheduleRegistry::canonicalize for a model preset spec
     * ("table4?HEADS=08" -> "table4?heads=8"); an unknown name's error
     * lists the known presets, sorted.
     */
    bool canonicalizeModel(const std::string &spec, std::string *out,
                           std::string *error) const;
    /** canonicalizeModel() for a cluster preset spec. */
    bool canonicalizeCluster(const std::string &spec, std::string *out,
                             std::string *error) const;

    /** Instantiate cluster preset spec @p spec (fatal if invalid). */
    sim::ClusterSpec makeCluster(const std::string &spec) const;

    /**
     * Resolve @p scenario to a ModelSpec on @p cluster, applying the
     * paper's defaults (E = cluster nodes when numExperts == 0); fatal
     * if its model spec is invalid.
     */
    model::ModelSpec makeModel(const Scenario &scenario,
                               const sim::ClusterSpec &cluster) const;

    /** Price @p scenario: cluster -> ModelSpec -> ModelCost. */
    core::ModelCost makeCost(const Scenario &scenario) const;

  private:
    /// A preset's declaration, and its builder from validated params.
    template <typename Spec>
    struct Preset
    {
        core::ParamDecl decl;
        std::function<Spec(const core::ScheduleParams &)> build;
    };

    ScenarioRegistry();

    /// Keyed by name, so an unknown name's error lists them sorted.
    std::map<std::string, Preset<model::ModelSpec>> models_;
    std::map<std::string, Preset<sim::ClusterSpec>> clusters_;
};

/**
 * Cartesian-product sweep builder. Every axis defaults to one sensible
 * value; the schedule axis defaults to every registered schedule, in
 * registration (paper-figure) order. Schedule specs may be
 * parameterized variants ("tutel?degree=4"), making tuning knobs
 * first-class sweep axes; build() canonicalizes every model, cluster
 * and schedule spec first (fatal on unknown names or invalid
 * parameters) and emits scenarios in nested-loop order (model,
 * cluster, batch, seqLen, layers, schedule), which fixes the result
 * order of a sweep.
 */
class ScenarioGrid
{
  public:
    ScenarioGrid &models(std::vector<std::string> v);
    ScenarioGrid &clusters(std::vector<std::string> v);
    /// Schedule spec strings; empty (the default) = every registered
    /// schedule's canonical name.
    ScenarioGrid &schedules(std::vector<std::string> v);
    ScenarioGrid &batches(std::vector<int64_t> v);
    ScenarioGrid &seqLens(std::vector<int64_t> v);
    ScenarioGrid &numLayers(std::vector<int> v);
    ScenarioGrid &rMax(int r);

    std::vector<Scenario> build() const;

  private:
    std::vector<std::string> models_ = {"gpt2xl-moe"};
    std::vector<std::string> clusters_ = {"testbedA"};
    std::vector<std::string> schedules_; // empty = all registered
    std::vector<int64_t> batches_ = {1};
    std::vector<int64_t> seq_lens_ = {1024};
    std::vector<int> num_layers_ = {0};
    int r_max_ = 16;
};

/**
 * The demo grid shared by fsmoe_sweep and the blessed cross-PR
 * baseline (bench/baselines/demo_grid.json): both paper testbeds, two
 * models, every registered schedule — plus, when @p schedules is
 * empty, a parameterized tutel?degree={2,4,8} sub-grid on Testbed A so
 * schedule variants are exercised as sweep axes. Keeping the
 * definition here means the CI baseline diff and the in-tree
 * regression test (tests/demo_grid_baseline_test.cc) can never drift
 * from what the CLI sweeps.
 */
std::vector<Scenario>
demoGrid(const std::vector<int64_t> &batches = {1, 2},
         const std::vector<std::string> &schedules = {});

/**
 * One process's share of a sweep: shard @p index of @p count
 * (1-based, "K/N" on the CLI).
 */
struct ShardSpec
{
    int index = 1; ///< Which shard this process runs, in [1, count].
    int count = 1; ///< Total number of shards.
};

/**
 * Parse "K/N" (e.g. "2/4") into a ShardSpec. Returns false unless
 * both are integers with 1 <= K <= N that fit a 32-bit int — K > N,
 * N == 0, and overflowing values are all rejected, never collapsed
 * into an empty or wrong shard. On failure *error (when non-null)
 * explains which constraint was violated.
 */
bool parseShardSpec(const std::string &text, ShardSpec *spec,
                    std::string *error = nullptr);

/**
 * The contiguous slice of @p scenarios belonging to @p shard:
 * [size*(K-1)/N, size*K/N). Deterministic, order-preserving, and a
 * partition — for a fixed input and N, the K slices are pairwise
 * disjoint and concatenating them in K order reproduces the input
 * exactly, which is what lets persisted shard results be merged into
 * a byte-identical unsharded sweep (see result_store.h). Fatal if
 * the spec is out of range.
 */
std::vector<Scenario> shardScenarios(const std::vector<Scenario> &scenarios,
                                     const ShardSpec &shard);

} // namespace fsmoe::runtime

#endif // FSMOE_RUNTIME_SCENARIO_H
