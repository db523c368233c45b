/**
 * @file
 * Schedule generators: from per-layer costs to simulator task graphs.
 *
 * The built-in schedule plugins reproduce the systems the paper
 * evaluates (registry names in quotes):
 *
 *  - "DS-MoE": DeepSpeed-MoE's default execution (Fig. 3a) —
 *    every task runs back to back, Gradient-AllReduce after the whole
 *    backward pass: Tutel at degree 1, priced with DeepSpeed-MoE's
 *    AlltoAll and kernel overheads.
 *  - "Tutel": Tutel with PipeMoE's adaptive pipelining of AlltoAll and
 *    expert computation (Fig. 3b), one communication channel (no
 *    intra/inter overlap), a single pipeline degree shared by forward
 *    and backward, Gradient-AllReduce unoverlapped.
 *  - "Tutel-Improved": Tutel plus Gradient-AllReduce overlapped with
 *    the non-MoE dense parts (the paper's strengthened baseline).
 *  - "PipeMoE+Lina": PipeMoE plus Lina's fixed-size (default 30 MB)
 *    gradient chunking overlapped with expert computation and dense
 *    parts.
 *  - "FSMoE-No-IIO": FSMoE's adaptive per-phase degrees and gradient
 *    partitioning, but inter- and intra-node communication still
 *    serialised on one channel (the paper's ablation).
 *  - "FSMoE": the full system (Fig. 3d): three streams, intra/inter
 *    overlap, per-phase degrees, adaptive gradient partitioning.
 *
 * The set is open: schedules are plugins registered with the
 * string-keyed ScheduleRegistry (schedule_registry.h) and selected by
 * spec strings with optional declared parameters ("tutel?degree=4",
 * "lina?chunkMB=60"). A schedule builds a sim::TaskGraph for one
 * training iteration (forward + backward over all generalized
 * layers); the discrete-event simulator turns it into an iteration
 * time.
 */
#ifndef FSMOE_CORE_SCHEDULES_SCHEDULE_H
#define FSMOE_CORE_SCHEDULES_SCHEDULE_H

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/grad_partition.h"
#include "core/moe_config.h"
#include "core/perf_model.h"
#include "core/pipeline_solver.h"
#include "sim/simulator.h"
#include "sim/task_graph.h"

namespace fsmoe::core {

/** Costs of one generalized layer (attention + MoE). */
struct LayerCost
{
    Workload workload;
    PhaseTimes fwd;
    PhaseTimes bwd;
};

/** A whole model iteration: layers in forward order plus the models. */
struct ModelCost
{
    PerfModelSet models;
    std::vector<LayerCost> layers;
    int rMax = 16; ///< Largest pipeline degree any schedule may pick.

    /// DeepSpeed-MoE implementation overheads relative to the tuned
    /// systems, applied only by the DS-MoE baseline schedule:
    /// dsA2aOverhead models its 2DH staged AlltoAll, which pays an
    /// extra intra-node pass per message (see core/dispatch.h) — a
    /// net loss at the large message sizes these workloads produce;
    /// dsKernelOverhead models its unfused gating/ordering kernels
    /// (paper Table 6 measures 1.33-1.42x per-gate gaps).
    double dsA2aOverhead = 1.9;
    double dsKernelOverhead = 2.0;
};

/** Derive a LayerCost from a configured shape and parallelism. */
LayerCost makeLayerCost(const PerfModelSet &models, const LayerShape &shape,
                        const ParallelConfig &par);

class ScheduleRegistry;

/** A built graph and its `Simulator::run` result, trace included. */
struct SimulatedGraph
{
    sim::TaskGraph graph;
    sim::SimResult sim;
    /// The pipeline degree a degree search (a schedule's `degree=0`)
    /// picked for this graph, which the same spec at that fixed
    /// `degree` builds too; 0 when no search picked it.
    int degree = 0;
};

/**
 * Abstract schedule: builds one iteration's task graph.
 *
 * Concrete schedules are plugins resolved through the string-keyed
 * ScheduleRegistry (see schedule_registry.h): each ships a
 * ScheduleInfo (canonical name, aliases, declared tunable params) and
 * a factory, and instances are created from *spec strings* such as
 * "fsmoe", "tutel?degree=4", or "lina?chunkMB=60". The closed
 * ScheduleKind enum this replaces is gone — discovering the available
 * schedules is a registry query (`ScheduleRegistry::instance().list()`
 * or `fsmoe_sweep --list-schedules`), and adding one never touches
 * core headers.
 */
class Schedule
{
  public:
    virtual ~Schedule() = default;

    /**
     * Build a schedule from a spec string via the process-wide
     * registry; fatal on unknown names or invalid parameters, listing
     * what is accepted. Equivalent to
     * `ScheduleRegistry::instance().create(spec)`.
     */
    static std::unique_ptr<Schedule> create(const std::string &spec);

    /** Canonical schedule name, e.g. "Tutel" (set by the registry). */
    const std::string &name() const { return name_; }

    /**
     * Canonical spec this instance was created from, e.g.
     * "Tutel?degree=4"; equals name() when no parameters were given.
     * Empty for instances constructed without the registry.
     */
    const std::string &spec() const { return spec_; }

    /**
     * A name for the graph build(model) makes: two schedules whose
     * keys are equal on one @p model build identical graphs (the same
     * tasks, duration bits and dependency lists), so their makespans,
     * bounds and cutoff decisions are equal too. A caller pricing many
     * specs on one model (the tuner's DE probes and frontier pass)
     * prices each key once. The default is the canonical spec with
     * every declared parameter filled in, given or defaulted ("Tutel"
     * and "Tutel?degree=0" both give "Tutel?degree=0"), since a
     * factory reads an absent parameter as its declared default; a
     * fully given spec is its own key. A schedule whose parameters can
     * leave its graph unchanged overrides it. Empty for an instance
     * constructed without the registry: an empty key never names a
     * shared graph, so a caller prices such a schedule on its own.
     */
    virtual std::string graphKey(const ModelCost &model) const;

    /** Build the full-iteration (forward + backward) task graph. */
    virtual sim::TaskGraph build(const ModelCost &model) const = 0;

    /**
     * The price of build(model): `Simulator::price(build(model))` bit
     * for bit (makespan, opTime and linkBusyMs, and an empty trace).
     * What a sweep records. A graph is simulated at most once: a
     * degree search's winner is not simulated again.
     */
    sim::SimResult price(const ModelCost &model) const;

    /**
     * The makespan of build(model) when it is below @p cutoff, else
     * +inf: a value below the cutoff has the bits of
     * `Simulator::run(build(model)).makespan`. A schedule may stop as
     * soon as the answer is known to reach the cutoff, before its
     * graph is built. With @p kept, a value below the cutoff also
     * leaves in *kept the graph build(model) makes and its
     * `Simulator::run` result, bit for bit, so a caller that needs the
     * trace simulates nothing again; otherwise *kept is left as it
     * was. The default builds and runs Simulator::makespanBelow, or
     * Simulator::runBelow with @p kept. A NaN cutoff is rejected.
     */
    virtual double makespanBelow(const ModelCost &model, double cutoff,
                                 SimulatedGraph *kept = nullptr) const;

    /**
     * A proven lower bound on `Simulator::run(build(model)).makespan`
     * that costs no build: a caller pricing many candidates against a
     * running cutoff (the tuner's frontier pass) skips the ones whose
     * bound already reaches it. The default, 0, never skips.
     */
    virtual double makespanLowerBound(const ModelCost &model) const
    {
        (void)model;
        return 0.0;
    }

    /** Convenience: price(model).makespan, in ms. */
    double iterationTimeMs(const ModelCost &model) const;

    /**
     * Build + simulate, returning the full result for inspection:
     * `Simulator::run(build(model))` bit for bit, trace included, with
     * the graph in @p graph_out. A graph is simulated at most once: a
     * degree search records its candidates' traces and hands its
     * winner's result back.
     */
    sim::SimResult simulate(const ModelCost &model,
                            sim::TaskGraph *graph_out = nullptr) const;

  protected:
    /**
     * build(model), and in @p simulated the graph's `Simulator::run`
     * result, bit for bit, when building it already simulated it (a
     * degree search simulates its winner), its trace recorded only
     * when @p record_trace; otherwise @p simulated is left empty. The
     * default builds and simulates nothing. price() and simulate()
     * finish what it leaves.
     */
    virtual sim::TaskGraph
    buildSimulated(const ModelCost &model, bool record_trace,
                   std::optional<sim::SimResult> &simulated) const;

  private:
    friend class ScheduleRegistry;
    std::string name_;
    std::string spec_;
    std::string graph_key_; ///< graphKey()'s default.
};

namespace detail {

/** Stream layout shared by all schedule builders. */
enum Stream : int
{
    kCompute = 0,
    kDispatch = 1,
    kAllGather = 2,
    kReduceScatter = 3,
    kCombine = 4,
    kGradAllReduce = 5,
    kNumStreams
};

/**
 * Printable name of a builder-layout stream index; nullptr for
 * indices outside the layout (trace exporters fall back to a generic
 * label).
 */
const char *streamName(int stream);

/** Options controlling how the MoE pipeline is emitted. */
struct PipelineBuildOptions
{
    /// Serialise intra-node collectives on the inter-node channel
    /// (models systems without intra/inter overlap).
    bool mergeCommLinks = false;
};

/**
 * Append one MoE layer phase (routing/order, pipelined dispatch ->
 * allgather -> experts -> reducescatter -> combine, inverse order) to
 * @p graph.
 *
 * @param graph       Graph under construction.
 * @param lc          The layer's costs.
 * @param models      Performance models for chunk durations.
 * @param phase       Forward or Backward (doubles expert compute).
 * @param r           Pipeline degree (>= 1).
 * @param opts        Stream/link emission options.
 * @param dep         Task that must finish before the layer starts
 *                    (-1 for none).
 * @param gar_ms      If > 0, insert a Gradient-AllReduce task of this
 *                    duration on the inter-node channel right after
 *                    the last dispatch chunk (Fig. 3d placement).
 * @param gar_out     Receives the AllReduce task id (-1 if none); the
 *                    caller must make the iteration barrier wait on it.
 * @return Id of the layer's final task (the inverse-order transform).
 */
sim::TaskId appendMoePhase(sim::TaskGraph &graph, const LayerCost &lc,
                           const PerfModelSet &models, Phase phase, int r,
                           const PipelineBuildOptions &opts, sim::TaskId dep,
                           double gar_ms = 0.0,
                           sim::TaskId *gar_out = nullptr);

/**
 * The same phase counted into @p tally in O(1) per lane, lane i at
 * degree r + i, with the TaskGraph overload's ids.
 */
sim::TaskId appendMoePhase(sim::DurationTally &tally, const LayerCost &lc,
                           const PerfModelSet &models, Phase phase, int r,
                           const PipelineBuildOptions &opts, sim::TaskId dep,
                           double gar_ms = 0.0,
                           sim::TaskId *gar_out = nullptr);

/** Append the layer's attention (dense) task and return its id. */
sim::TaskId appendAttention(sim::TaskGraph &graph, const LayerCost &lc,
                            Phase phase, sim::TaskId dep);

/** The same task counted into every lane of @p tally. */
sim::TaskId appendAttention(sim::DurationTally &tally, const LayerCost &lc,
                            Phase phase, sim::TaskId dep);

/**
 * Reserve @p graph's task vector and dependency pool for one full
 * iteration (forward + backward) of @p num_layers layers at pipeline
 * degrees up to @p r_max, plus @p extra_tasks tasks of two edges each
 * (e.g. gradient buckets and their barrier edges). Call once per
 * build, before appending — over-estimating is fine, repeated
 * exact-fit reserves are not (they degrade vector growth to quadratic
 * copying).
 */
void reserveIteration(sim::TaskGraph &graph, size_t num_layers, int r_max,
                      size_t extra_tasks = 0);

/** A tally stores no tasks, so it reserves nothing. */
inline void
reserveIteration(sim::DurationTally &, size_t, int, size_t = 0)
{
}

/** The degree a search picked, its simulated makespan and its graph. */
struct DegreeChoice
{
    int r = 1;
    double makespanMs = 0.0;
    sim::TaskGraph graph; ///< The schedule's graph at r.
    /// Simulator::run(graph) when makespanMs is finite, its trace
    /// recorded only when the search was asked to; otherwise empty.
    sim::SimResult sim;
};

/**
 * A schedule emitted at one pipeline degree: a fixed one, or with
 * degree 0 the searchDegree() winner over 1..rMax. Tutel and Lina
 * derive from it and supply emit().
 */
class DegreeSchedule : public Schedule
{
  public:
    /** @param degree Fixed pipeline degree; 0 searches 1..rMax. */
    explicit DegreeSchedule(int degree) : degree_(degree) {}

    /** At degree 0, the search's winner, found without a trace. */
    sim::TaskGraph build(const ModelCost &model) const override;

    /**
     * +inf at once when degreeFreeBound() reaches @p cutoff (counted in
     * schedule.search.degreeFreeCut). Otherwise, at degree 0, the
     * search seeded with @p cutoff, whose winner is what @p kept
     * receives, with the degree it picked (the search records traces
     * only with @p kept); at a fixed degree, the graph is built and
     * simulated only when makespanLowerBound() is below @p cutoff.
     */
    double makespanBelow(const ModelCost &model, double cutoff,
                         SimulatedGraph *kept = nullptr) const override;

    /**
     * The release-date bound (Simulator::makespanLowerBound) of
     * emit()'s duration tally at the fixed degree, or at degree 0 the
     * least such bound over 1..rMax, all from one walk of emit(): the
     * search picks one of those degrees, so its makespan is at least
     * the smallest of their bounds.
     */
    double makespanLowerBound(const ModelCost &model) const override;

    /** Append the iteration graph at pipeline degree @p r. */
    virtual void emit(sim::TaskGraph &graph, const ModelCost &model,
                      int r) const = 0;

    /**
     * Count the same graph into @p tally, lane i at degree r + i, each
     * lane a candidate's bound. A schedule does so when r reaches its
     * graph only through appendMoePhase() (and reserveIteration()), as
     * Tutel's and Lina's do, with one template body for both sinks.
     */
    virtual void emit(sim::DurationTally &tally, const ModelCost &model,
                      int r) const = 0;

    /**
     * A lower bound on the makespan of emit()'s graph at every degree,
     * found without emitting one: makespanBelow()'s early exit, cheaper
     * than a tally. The default, 0, never cuts.
     */
    virtual double degreeFreeBound(const ModelCost &model) const
    {
        (void)model;
        return 0.0;
    }

  protected:
    /**
     * At degree 0, the search's winner with its simulated result (none
     * when no candidate finished below +inf), every candidate traced
     * when @p record_trace.
     */
    sim::TaskGraph
    buildSimulated(const ModelCost &model, bool record_trace,
                   std::optional<sim::SimResult> &simulated) const override;

    /** The fixed pipeline degree, or 0 for the search. */
    int degree() const { return degree_; }

  private:
    int degree_;
};

/**
 * PipeMoE's adaptive pipeline degree (paper Fig. 3b): the r in
 * 1..model.rMax (which must be >= 1) whose graph, as @p sched emits
 * it, simulates to the smallest makespan, the first such r on ties.
 * Exact but pruned: @p sched is first emitted once into a
 * sim::DurationTally with one lane per candidate, for each candidate's
 * release-date lower bound (Simulator::makespanLowerBound of its
 * lane), and the candidates are visited in ascending (bound, r) order.
 * One whose bound already reaches the best makespan so far is skipped
 * without being built; the rest are built and simulated with that
 * makespan as the cutoff (Simulator::priceBelow, or with
 * @p record_trace Simulator::runBelow). A candidate below the
 * incumbent's r keeps the tie: it is skipped only on a bound above the
 * best and runs against the best's successor, nextafter(best, +inf).
 * So the choice is the lexicographic least (makespan, r), the unpruned
 * ascending loop's, bit for bit. Counts into schedule.search.{
 * candidates, bounded, simulated, cut, boundWalks}
 * (docs/OBSERVABILITY.md). The winner's graph and its SimResult are
 * the ones the search simulated, returned so the caller need neither
 * emit nor simulate it again; holding them while later candidates
 * build raises peak memory by up to one graph (and one trace, with
 * @p record_trace).
 *
 * The best makespan starts at @p cutoff. When the minimum is below it,
 * the result is the unseeded search's (same r, makespan bits and
 * graph). Otherwise makespanMs is +inf, the graph and result are
 * empty, and no candidate whose bound reaches the cutoff was built.
 * Only with cutoff = +inf does a search where nothing finishes below
 * +inf emit the r = 1 graph, which it does not simulate. A NaN cutoff
 * is rejected.
 */
DegreeChoice searchDegree(
    const DegreeSchedule &sched, const ModelCost &model,
    double cutoff = std::numeric_limits<double>::infinity(),
    bool record_trace = false);

/** Build backward-order generalized layers for the grad partitioner. */
std::vector<GeneralizedLayer> makeGeneralizedLayers(const ModelCost &model);

} // namespace detail

} // namespace fsmoe::core

#endif // FSMOE_CORE_SCHEDULES_SCHEDULE_H
