#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>

#include "base/fileio.h"
#include "base/stats.h"
#include "core/grad_partition.h"
#include "core/pipeline_solver.h"
#include "core/schedules/schedule.h"
#include "core/schedules/schedule_registry.h"
#include "core/solver_cache.h"
#include "runtime/journal.h"
#include "runtime/result_store.h"
#include "runtime/scenario.h"
#include "runtime/sweep_engine.h"
#include "runtime/tuner.h"
#include "service/job.h"
#include "service/protocol.h"
#include "service/sweep_server.h"
#include "sim/simulator.h"

namespace fsmoe::bench {

double
Samples::pct(double p) const
{
    if (v_.empty())
        return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double rank = std::ceil(p * static_cast<double>(s.size()));
    const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return s[std::min(i, s.size() - 1)];
}

namespace {

using Clock = std::chrono::steady_clock;
using runtime::Scenario;
using runtime::SweepResult;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
ratio(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

uint64_t
splitmix64(uint64_t *state)
{
    uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Fisher-Yates over 0..n-1 driven by splitmix64(@p seed). */
std::vector<size_t>
permutation(size_t n, uint64_t seed)
{
    std::vector<size_t> p(n);
    for (size_t i = 0; i < n; ++i)
        p[i] = i;
    uint64_t state = seed;
    for (size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[splitmix64(&state) % i]);
    return p;
}

std::string
readOrThrow(const std::string &path)
{
    std::string text, error;
    if (!fileio::readTextFile(path, &text, &error))
        throw std::runtime_error(error);
    return text;
}

// ------------------------------------------------------- output checks

/** The blessed demo-grid sweep: its bytes and each scenario's record. */
struct GridBaseline
{
    std::string bytes;
    std::vector<std::string> records; ///< toJsonRecord, by grid index.
};

GridBaseline
loadGridBaseline(const std::string &dir, size_t grid_size)
{
    GridBaseline b;
    b.bytes = readOrThrow(dir + "/demo_grid.json");
    std::vector<SweepResult> parsed;
    std::string error;
    if (!runtime::parseJson(b.bytes, &parsed, &error))
        throw std::runtime_error("demo_grid.json: " + error);
    if (parsed.size() != grid_size)
        throw std::runtime_error("demo_grid.json does not describe the "
                                 "demo grid");
    for (const SweepResult &r : parsed)
        b.records.push_back(runtime::toJsonRecord(r));
    return b;
}

/**
 * Failed scenarios of one sweep: @p results[i] is grid index
 * @p order[i]. A scenario fails unless its record is byte-identical to
 * the baseline's; if every record matches, the results put back in
 * grid order must also serialise to the baseline's exact bytes.
 */
uint64_t
countFailures(const GridBaseline &b, const std::vector<size_t> &order,
              const std::vector<SweepResult> &results)
{
    if (results.size() != order.size())
        return order.size();
    uint64_t failed = 0;
    std::vector<SweepResult> in_grid_order(b.records.size());
    for (size_t i = 0; i < order.size(); ++i) {
        // The blessed file carries no per-link columns.
        SweepResult r = results[i];
        r.hasLinkStats = false;
        if (r.status != runtime::ResultStatus::Ok ||
            runtime::toJsonRecord(r) != b.records[order[i]])
            ++failed;
        in_grid_order[order[i]] = r;
    }
    if (failed == 0 && runtime::toJson(in_grid_order) != b.bytes)
        failed = order.size();
    return failed;
}

// ------------------------------------------- replicated per-scenario path

using CostMemo =
    std::map<std::string, std::shared_ptr<const core::ModelCost>>;

/** What Schedule::build does for a spec, as far as tracing cares. */
struct BuildPlan
{
    enum class Kind { Plain, FsMoe, DegreeSearch };
    Kind kind = Kind::Plain;
    bool iio = true;
    bool step2 = true;
    std::string base; ///< Degree search: the spec minus its degree.
};

BuildPlan
planFor(const std::string &spec)
{
    core::ScheduleSpec parsed;
    std::string error;
    if (!core::ScheduleSpec::parse(spec, &parsed, &error))
        throw std::runtime_error(error);
    BuildPlan plan;
    if (parsed.name == "FSMoE" || parsed.name == "FSMoE-No-IIO") {
        plan.kind = BuildPlan::Kind::FsMoe;
        plan.iio = parsed.name == "FSMoE";
        for (const auto &kv : parsed.params)
            if (kv.first == "step2")
                plan.step2 = kv.second != "false";
        return plan;
    }
    if (parsed.name != "Tutel" && parsed.name != "Tutel-Improved" &&
        parsed.name != "PipeMoE+Lina")
        return plan;
    // Degree 0 (or none) makes the schedule search r = 1..rMax by
    // simulation inside build(); a fixed degree builds once.
    plan.base = parsed.name;
    char sep = '?';
    for (const auto &kv : parsed.params) {
        if (kv.first == "degree") {
            if (kv.second != "0")
                return BuildPlan{};
            continue;
        }
        plan.base += sep + kv.first + "=" + kv.second;
        sep = '&';
    }
    plan.base += sep;
    plan.base += "degree=";
    plan.kind = BuildPlan::Kind::DegreeSearch;
    return plan;
}

sim::TaskGraph
tracedBuild(Tracer &t, const std::string &spec, const core::ModelCost &cost,
            int64_t op)
{
    Scope span(&t, "schedules.build", op);
    sim::TaskGraph g = core::Schedule::create(spec)->build(cost);
    span.work(static_cast<int64_t>(g.size()));
    return g;
}

sim::SimResult
tracedSimulate(Tracer &t, const sim::TaskGraph &g, int64_t op)
{
    Scope span(&t, "simulator.run", op);
    span.work(static_cast<int64_t>(g.size()));
    return sim::Simulator{}.run(g);
}

/**
 * SweepEngine's per-scenario path (cost -> Schedule::build -> simulate)
 * re-issued as public calls, so each layer gets its own span: the
 * forward Algorithm-1 solves and the DE gradient partition that an
 * FSMoE build would run are issued first (the build then finds them in
 * the solver cache), and a degree search's candidate builds and
 * simulations are issued one by one. @p reconcile_failures counts
 * builds that still solved something cold, i.e. where the spans would
 * misattribute solver time to the builder.
 */
SweepResult
replicateScenario(Tracer &t, const Scenario &s, int64_t op, CostMemo *memo,
                  uint64_t *reconcile_failures)
{
    Scope scenario(&t, "scenario", op, /*layer=*/false);
    std::shared_ptr<const core::ModelCost> cost;
    const std::string key = s.costKey();
    const auto it = memo->find(key);
    if (it != memo->end()) {
        cost = it->second;
    } else {
        Scope span(&t, "scenario.cost", op);
        cost = std::make_shared<const core::ModelCost>(
            runtime::ScenarioRegistry::instance().makeCost(s));
        memo->emplace(key, cost);
    }

    const BuildPlan plan = planFor(s.schedule);
    sim::TaskGraph graph;
    if (plan.kind == BuildPlan::Kind::FsMoe) {
        for (const core::LayerCost &lc : cost->layers) {
            Scope span(&t, plan.iio ? "pipeline_solver.alg1"
                                    : "pipeline_solver.merged",
                       op);
            const core::PipelineProblem prob =
                core::makeProblem(cost->models, lc.workload,
                                  core::Phase::Forward, 0.0, cost->rMax);
            (void)(plan.iio ? core::cachedSolvePipeline(prob)
                            : core::cachedSolvePipelineMerged(prob));
        }
        {
            Scope span(&t, "grad_partition", op);
            const uint64_t misses = core::solverCacheStats().partitionMisses;
            solver::DeConfig de;
            de.populationSize = 24;
            de.maxGenerations = 80;
            const core::GradPartitionPlan gp = core::cachedPartitionGradients(
                core::detail::makeGeneralizedLayers(*cost),
                cost->models.allreduce, de, plan.step2, !plan.iio);
            if (core::solverCacheStats().partitionMisses != misses)
                span.work(gp.deGenerations);
        }
        const core::SolverCacheStats before = core::solverCacheStats();
        graph = tracedBuild(t, s.schedule, *cost, op);
        const core::SolverCacheStats after = core::solverCacheStats();
        if (after.pipelineMisses != before.pipelineMisses ||
            after.partitionMisses != before.partitionMisses)
            ++*reconcile_failures;
    } else if (plan.kind == BuildPlan::Kind::DegreeSearch) {
        int best_r = 1;
        double best_t = std::numeric_limits<double>::infinity();
        {
            Scope search(&t, "schedules.search", op);
            for (int r = 1; r <= cost->rMax; ++r) {
                const sim::TaskGraph g = tracedBuild(
                    t, plan.base + std::to_string(r), *cost, op);
                const double ms = tracedSimulate(t, g, op).makespan;
                if (ms < best_t) {
                    best_t = ms;
                    best_r = r;
                }
                search.work(1);
            }
        }
        graph = tracedBuild(t, plan.base + std::to_string(best_r), *cost, op);
    } else {
        graph = tracedBuild(t, s.schedule, *cost, op);
    }

    runtime::ScenarioResult r;
    r.scenario = s;
    r.sim = tracedSimulate(t, graph, op);
    r.makespanMs = r.sim.makespan;
    return SweepResult::fromScenarioResult(r);
}

/** One traced grid rep: every scenario, then serialise and re-parse. */
std::vector<SweepResult>
replicateGrid(Tracer &t, const std::vector<Scenario> &grid,
              const std::vector<size_t> &order, CostMemo *memo,
              uint64_t *reconcile_failures)
{
    std::vector<SweepResult> out;
    out.reserve(order.size());
    for (size_t idx : order)
        out.push_back(replicateScenario(t, grid[idx],
                                        static_cast<int64_t>(idx), memo,
                                        reconcile_failures));
    std::string text;
    {
        Scope span(&t, "result_store.serialize");
        text = runtime::toJson(out);
        span.work(static_cast<int64_t>(text.size()));
    }
    std::vector<SweepResult> back;
    std::string error;
    bool parsed = false;
    {
        Scope span(&t, "result_store.parse");
        parsed = runtime::parseJson(text, &back, &error);
    }
    if (!parsed || back.size() != out.size())
        ++*reconcile_failures;
    return out;
}

/** Solver-cache hit ratio over the deltas between two snapshots. */
struct SolverHits
{
    uint64_t hits = 0;
    uint64_t calls = 0;

    void add(const core::SolverCacheStats &a, const core::SolverCacheStats &b)
    {
        const uint64_t h = (b.pipelineHits - a.pipelineHits) +
                           (b.partitionHits - a.partitionHits);
        hits += h;
        calls += h + (b.pipelineMisses - a.pipelineMisses) +
                 (b.partitionMisses - a.partitionMisses);
    }
    double ratio() const
    {
        return calls > 0 ? static_cast<double>(hits) / calls : 0.0;
    }
};

// ------------------------------------------------------ the workloads

/**
 * sweep-cold and sweep-resim: the demo grid in a seed-permuted order on
 * one thread. Cold: solver caches cleared and a fresh engine every rep.
 * Resim: one engine with its ModelCost cache and the solver caches
 * primed during set-up, and the SimResult cache off, so each rep
 * rebuilds and re-simulates every graph.
 */
class SweepWorkload : public Workload
{
  public:
    SweepWorkload(const RunConfig &config, bool resim)
        : config_(config), resim_(resim)
    {
    }

    void
    setup() override
    {
        grid_ = runtime::demoGrid();
        baseline_ = loadGridBaseline(config_.baselines, grid_.size());
        order_ = permutation(grid_.size(), config_.seed);
        scenarios_.clear();
        for (size_t idx : order_)
            scenarios_.push_back(grid_[idx]);
        if (resim_) {
            core::clearSolverCaches();
            runtime::SweepOptions opts;
            opts.numThreads = 1;
            opts.enableSimCache = false;
            engine_ = std::make_unique<runtime::SweepEngine>(opts);
            check(engine_->run(scenarios_));
        }
    }

    double scenariosPerRep() const override { return grid_.size(); }
    double queriesPerRep() const override { return 1.0; }

    double
    rep() override
    {
        std::unique_ptr<runtime::SweepEngine> fresh;
        runtime::SweepEngine *engine = engine_.get();
        if (!resim_) {
            core::clearSolverCaches();
            fresh = std::make_unique<runtime::SweepEngine>(
                runtime::SweepOptions{1});
            engine = fresh.get();
        }
        const runtime::SweepStats before = engine->stats();
        const auto t0 = Clock::now();
        const std::vector<runtime::ScenarioResult> results =
            engine->run(scenarios_);
        const double ms = msSince(t0);
        const runtime::SweepStats after = engine->stats();
        costHits_ = after.costCacheHits - before.costCacheHits;
        costLookups_ =
            costHits_ + after.costCacheMisses - before.costCacheMisses;
        simHits_ = after.simCacheHits - before.simCacheHits;
        simLookups_ = simHits_ + after.simCacheMisses - before.simCacheMisses;
        check(results);
        return ms;
    }

    void
    tracedRep(Tracer &t) override
    {
        if (!resim_) {
            core::clearSolverCaches();
            memo_.clear();
        } else if (memo_.empty()) {
            // The engine's ModelCost cache is warm in every resim rep.
            for (const Scenario &s : scenarios_)
                if (memo_.count(s.costKey()) == 0)
                    memo_.emplace(s.costKey(),
                                  std::make_shared<const core::ModelCost>(
                                      runtime::ScenarioRegistry::instance()
                                          .makeCost(s)));
        }
        uint64_t reconcile = 0;
        const core::SolverCacheStats s0 = core::solverCacheStats();
        std::vector<SweepResult> results;
        {
            Scope rep(&t, "rep", -1, /*layer=*/false);
            results = replicateGrid(t, grid_, order_, &memo_, &reconcile);
        }
        solverHits_.add(s0, core::solverCacheStats());
        attempted += order_.size();
        failed += std::max(countFailures(baseline_, order_, results),
                           reconcile);
        if (reconcile > 0)
            std::fprintf(stderr,
                         "bench_fsmoe: %llu traced scenarios did not "
                         "reconcile with the engine's path\n",
                         static_cast<unsigned long long>(reconcile));
    }

    std::vector<Metric>
    layerMetrics(const Samples &untraced, const Tracer &t) override
    {
        return {
            {"solver_cache.hit_ratio", solverHits_.ratio(), "ratio"},
            {"sweep_engine.reps", static_cast<double>(untraced.size()),
             "count"},
            {"sweep_engine.rep_ms_p50", untraced.pct(0.5), "ms"},
            {"sweep_engine.rep_ms_p90", untraced.pct(0.9), "ms"},
            {"sweep_engine.cost_cache.hit_ratio",
             ratio(costHits_, costLookups_), "ratio"},
            {"sweep_engine.sim_cache.hit_ratio", ratio(simHits_, simLookups_),
             "ratio"},
            {"sweep_engine.overhead_ms",
             fastestRepMs(untraced) - t.fastestRep().stageMs, "ms"},
        };
    }

  private:
    void
    check(const std::vector<runtime::ScenarioResult> &results)
    {
        attempted += order_.size();
        failed += countFailures(baseline_, order_,
                                runtime::toSweepResults(results));
    }

    const RunConfig config_;
    const bool resim_;
    std::vector<Scenario> grid_;
    GridBaseline baseline_;
    std::vector<size_t> order_;
    std::vector<Scenario> scenarios_; ///< grid_ in order_.
    std::unique_ptr<runtime::SweepEngine> engine_; ///< Resim only.
    CostMemo memo_;
    SolverHits solverHits_;
    double costHits_ = 0, costLookups_ = 0, simHits_ = 0, simLookups_ = 0;
};

/**
 * tune-cold: a rep is 4 cold Tuner::tune queries for the demo query,
 * each on a fresh one-thread Tuner after clearing the solver caches.
 * They differ only in the DE seed, which changes the search path and
 * the number of simulations; the workload seed orders them. The
 * default-seed answer must byte-match demo_tune.json, every other
 * answer must repeat the first rep's bytes, and every answer must equal
 * its warm re-query, which must run no simulation.
 */
class TuneWorkload : public Workload
{
  public:
    explicit TuneWorkload(const RunConfig &config) : config_(config) {}

    void
    setup() override
    {
        // First-use initialisation the first query would otherwise pay.
        (void)runtime::ScenarioRegistry::instance();
        (void)core::ScheduleRegistry::instance();
        query_ = runtime::TuneQuery{};
        query_.model = "gpt2xl-moe";
        query_.cluster = "testbedA";
        // The default seed first: smoke runs take only that query.
        seeds_ = {runtime::TuneOptions{}.de.seed, 11, 23, 37};
        if (config_.smoke)
            seeds_.resize(1);
        expected_.assign(seeds_.size(), std::string());
        expected_[0] = readOrThrow(config_.baselines + "/demo_tune.json");
        order_ = permutation(seeds_.size(), config_.seed);
        fastestQueryMs_.assign(seeds_.size(),
                               std::numeric_limits<double>::infinity());
    }

    double scenariosPerRep() const override { return specsPerRep_; }
    double queriesPerRep() const override { return seeds_.size(); }

    double
    rep() override
    {
        Pass pass;
        for (size_t q : order_) {
            core::clearSolverCaches();
            runtime::Tuner tuner(options(q));
            const uint64_t sims0 = simRuns_.value();
            const uint64_t tasks0 = simTasks_.value();
            const auto t0 = Clock::now();
            const runtime::TuneAnswer answer = tuner.tune(query_);
            const double ms = msSince(t0);
            // clearSolverCaches() zeroed the counters.
            solverHits_.add(core::SolverCacheStats{}, core::solverCacheStats());
            const runtime::SweepStats st = tuner.engine().stats();
            fastestQueryMs_[q] = std::min(fastestQueryMs_[q], ms);
            pass.ms += ms;
            pass.specs += answer.evaluated;
            pass.sims += simRuns_.value() - sims0;
            pass.tasks += simTasks_.value() - tasks0;
            pass.buildMs += st.graphBuildMs;
            pass.simulateMs += st.simulateMs;
            check(q, tuner, answer);
        }
        specsPerRep_ = static_cast<double>(pass.specs);
        passes_.push_back(pass);
        return pass.ms;
    }

    /**
     * The sum of each query's fastest time: the queries differ in work,
     * so each gets its own minimum, and a slow phase must then cover
     * every rep of some query to show.
     */
    double
    fastestRepMs(const Samples &) const override
    {
        double sum = 0.0;
        for (double ms : fastestQueryMs_)
            sum += ms;
        return sum;
    }

    void
    tracedRep(Tracer &t) override
    {
        std::vector<runtime::TuneAnswer> answers(seeds_.size());
        {
            Scope rep(&t, "rep", -1, /*layer=*/false);
            for (size_t q : order_) {
                core::clearSolverCaches();
                Scope span(&t, "tuner.tune", static_cast<int64_t>(q));
                runtime::Tuner tuner(options(q));
                answers[q] = tuner.tune(query_);
            }
        }
        for (size_t q : order_) {
            attempted += 1;
            if (runtime::Tuner::answerJson(answers[q]) != expected_[q] &&
                !expected_[q].empty())
                failed += 1;
        }
    }

    std::vector<Metric>
    layerMetrics(const Samples &untraced, const Tracer &) override
    {
        Pass best;
        for (const Pass &p : passes_)
            if (best.ms == 0.0 || p.ms < best.ms)
                best = p;
        const double n = static_cast<double>(seeds_.size());
        return {
            {"solver_cache.hit_ratio", solverHits_.ratio(), "ratio"},
            {"tuner.reps", static_cast<double>(untraced.size()), "count"},
            {"tuner.rep_ms_p50", untraced.pct(0.5), "ms"},
            {"tuner.specs_evaluated", static_cast<double>(best.specs),
             "count"},
            {"tuner.sims_per_query", best.sims / n, "count"},
            {"tuner.tasks_per_query", best.tasks / n, "count"},
            {"tuner.engine_build_ms", best.buildMs, "ms"},
            {"tuner.engine_simulate_ms", best.simulateMs, "ms"},
            {"tuner.other_ms", best.ms - best.buildMs - best.simulateMs, "ms"},
            {"simulator.runs", static_cast<double>(best.sims), "count"},
            {"simulator.tasks", static_cast<double>(best.tasks), "count"},
        };
    }

  private:
    struct Pass
    {
        double ms = 0.0;
        uint64_t specs = 0;
        uint64_t sims = 0;
        uint64_t tasks = 0;
        double buildMs = 0.0;
        double simulateMs = 0.0;
    };

    runtime::TuneOptions
    options(size_t q) const
    {
        runtime::TuneOptions o;
        o.numThreads = 1;
        o.de.seed = seeds_[q];
        return o;
    }

    void
    check(size_t q, runtime::Tuner &tuner, const runtime::TuneAnswer &answer)
    {
        attempted += 1;
        const std::string json = runtime::Tuner::answerJson(answer);
        const uint64_t sims0 = simRuns_.value();
        const runtime::TuneAnswer warm = tuner.tune(query_);
        bool ok = warm.fromCache && simRuns_.value() == sims0 &&
                  runtime::Tuner::answerJson(warm) == json;
        if (expected_[q].empty())
            expected_[q] = json;
        else
            ok = ok && json == expected_[q];
        if (!ok)
            failed += 1;
    }

    const RunConfig config_;
    runtime::TuneQuery query_;
    std::vector<uint64_t> seeds_;
    std::vector<std::string> expected_; ///< Answer bytes, by seed index.
    std::vector<size_t> order_;
    std::vector<Pass> passes_;
    std::vector<double> fastestQueryMs_; ///< By seed index.
    double specsPerRep_ = 0.0;
    SolverHits solverHits_;
    stats::Counter &simRuns_ = stats::counter("sim.runs");
    stats::Counter &simTasks_ = stats::counter("sim.tasks.executed");
};

/**
 * service-3w: the blessed demo job (batches 1 2, every schedule)
 * through SweepServer::runJob with 3 worker processes, a fresh journal
 * per job, and solver caches cleared before the workers fork. The job
 * fixes the scenario order, so the seed does not apply. The merged
 * output must byte-match demo_grid.json.
 */
class ServiceWorkload : public Workload
{
  public:
    explicit ServiceWorkload(const RunConfig &config) : config_(config) {}

    void
    setup() override
    {
        job_ = service::JobSpec{};
        job_.name = "bench";
        job_.batches = {1, 2};
        job_.outPath = config_.workDir + "/out.json";
        grid_ = service::buildJobGrid(job_);
        baseline_ = loadGridBaseline(config_.baselines, grid_.size());
        order_.clear();
        for (size_t i = 0; i < grid_.size(); ++i)
            order_.push_back(i);
    }

    double scenariosPerRep() const override { return grid_.size(); }
    double queriesPerRep() const override { return 1.0; }

    double
    rep() override
    {
        const double ms = runJob(nullptr);
        checkOutput();
        return ms;
    }

    void
    tracedRep(Tracer &t) override
    {
        {
            Scope rep(&t, "rep", -1, /*layer=*/false);
            runJob(&t);
        }
        checkOutput();
        replaySupervisor(t);

        // The workers' evaluation work, done once in this process with
        // one cold cache (each worker really starts cold at its fork).
        core::clearSolverCaches();
        CostMemo memo;
        uint64_t reconcile = 0;
        std::vector<SweepResult> results;
        {
            Scope rep(&t, "evaluate", -1, /*layer=*/false);
            for (size_t idx : order_)
                results.push_back(replicateScenario(
                    t, grid_[idx], static_cast<int64_t>(idx), &memo,
                    &reconcile));
        }
        // clearSolverCaches() zeroed the counters.
        solverHits_.add(core::SolverCacheStats{}, core::solverCacheStats());
        attempted += order_.size();
        failed += std::max(countFailures(baseline_, order_, results),
                           reconcile);
    }

    std::vector<Metric>
    layerMetrics(const Samples &untraced, const Tracer &t) override
    {
        double eval_ms = std::numeric_limits<double>::infinity();
        Samples appends;
        for (const Span &s : t.spans()) {
            if (s.name == "evaluate")
                eval_ms = std::min(eval_ms, s.durMs());
            if (s.name == "journal.append")
                appends.add(s.durMs());
        }
        const double job_ms = fastestRepMs(untraced);
        return {
            {"solver_cache.hit_ratio", solverHits_.ratio(), "ratio"},
            {"journal.append_ms_p50", appends.pct(0.5), "ms"},
            {"journal.append_ms_p90", appends.pct(0.9), "ms"},
            {"sweep_server.reps", static_cast<double>(untraced.size()),
             "count"},
            {"sweep_server.rep_ms_p50", untraced.pct(0.5), "ms"},
            {"sweep_server.rep_ms_p90", untraced.pct(0.9), "ms"},
            {"sweep_server.parallel_eff", ratio(eval_ms, 3.0 * job_ms),
             "ratio"},
        };
    }

  private:
    /** One job, timed; with a tracer, inside a sweep_server.job span. */
    double
    runJob(Tracer *t)
    {
        const std::string journal = config_.workDir + "/journal.txt";
        std::remove(journal.c_str());
        std::remove(job_.outPath.c_str());
        core::clearSolverCaches();
        service::ServerOptions opts;
        opts.numWorkers = 3;
        service::SweepServer server(opts);
        outcome_ = service::JobOutcome{};
        const auto t0 = Clock::now();
        {
            Scope span(t, "sweep_server.job");
            jobOk_ = server.runJob(job_, journal, /*resume=*/false, &outcome_);
        }
        return msSince(t0);
    }

    void
    checkOutput()
    {
        attempted += order_.size();
        std::string text, error;
        results_.clear();
        if (!jobOk_ || outcome_.quarantined != 0 ||
            !fileio::readTextFile(job_.outPath, &text, &error) ||
            !runtime::parseJson(text, &results_, &error)) {
            std::fprintf(stderr, "bench_fsmoe: service job failed: %s%s\n",
                         outcome_.error.c_str(), error.c_str());
            failed += order_.size();
            results_.clear();
            return;
        }
        failed += text == baseline_.bytes
                      ? 0
                      : std::max<uint64_t>(
                            1, countFailures(baseline_, order_, results_));
    }

    /**
     * The supervisor's per-record work outside the job, on this job's
     * results: a Result frame encoded and decoded, a journal append,
     * then the merged write.
     */
    void
    replaySupervisor(Tracer &t)
    {
        if (results_.size() != order_.size())
            return;
        const std::string journal = config_.workDir + "/replay-journal.txt";
        const std::string out = config_.workDir + "/replay-out.json";
        std::remove(journal.c_str());
        std::vector<std::string> bodies;
        for (size_t i = 0; i < results_.size(); ++i)
            bodies.push_back(std::to_string(i) + " " +
                             runtime::toJsonRecord(results_[i]));
        runtime::Journal j;
        std::string error;
        if (!j.open(journal, grid_, /*resume=*/false, &error))
            throw std::runtime_error(error);
        service::FrameReader reader;
        bool ok = true;
        {
            Scope rep(&t, "supervisor", -1, /*layer=*/false);
            for (size_t i = 0; i < results_.size(); ++i) {
                const int64_t op = static_cast<int64_t>(i);
                service::Frame f;
                {
                    Scope span(&t, "protocol.frame", op);
                    const std::string wire = service::encodeFrame(
                        service::Frame{service::FrameType::Result, bodies[i]});
                    reader.feed(wire.data(), wire.size());
                    ok = reader.next(&f, &error) && ok;
                }
                ok = ok && f.body == bodies[i];
                Scope span(&t, "journal.append", op);
                ok = j.append(i, results_[i], &error) && ok;
            }
            j.close();
            Scope span(&t, "result_store.write");
            ok = runtime::writeResultsJson(out, results_) && ok;
        }
        if (!ok)
            throw std::runtime_error("supervisor replay failed: " + error);
    }

    const RunConfig config_;
    service::JobSpec job_;
    std::vector<Scenario> grid_;
    GridBaseline baseline_;
    std::vector<size_t> order_; ///< The job's own order, 0..n-1.
    service::JobOutcome outcome_;
    bool jobOk_ = false;
    std::vector<SweepResult> results_; ///< Last job's merged output.
    SolverHits solverHits_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "sweep-cold", "sweep-resim", "tune-cold", "service-3w"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const RunConfig &config)
{
    if (name == "sweep-cold")
        return std::make_unique<SweepWorkload>(config, /*resim=*/false);
    if (name == "sweep-resim")
        return std::make_unique<SweepWorkload>(config, /*resim=*/true);
    if (name == "tune-cold")
        return std::make_unique<TuneWorkload>(config);
    if (name == "service-3w")
        return std::make_unique<ServiceWorkload>(config);
    return nullptr;
}

} // namespace fsmoe::bench
