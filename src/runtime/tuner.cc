#include "runtime/tuner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "base/audit.h"
#include "base/fileio.h"
#include "base/json.h"
#include "base/logging.h"
#include "base/number.h"
#include "base/stats.h"
#include "core/grad_partition.h"
#include "core/schedules/param_space.h"
#include "core/schedules/schedule_registry.h"

namespace fsmoe::runtime {

namespace {

/// Int axes spanning more values than this become continuous.
constexpr size_t kMaxGridPerAxis = 32;
/// Largest full grid enumerated per schedule; larger spaces (and any
/// space with a continuous axis) use differential evolution.
constexpr size_t kMaxGridSpecs = 512;
/// Global top-N candidates (by makespan) carried into the metric pass
/// that computes comm/memory objectives and the frontier; each
/// schedule's best candidate is always included as well.
constexpr size_t kFrontierCandidates = 16;

/** Tie-stable "is a better (makespan, spec) pair" ordering. */
bool
betterProbe(double ms_a, const std::string &spec_a, double ms_b,
            const std::string &spec_b)
{
    if (ms_a != ms_b)
        return ms_a < ms_b;
    return spec_a < spec_b;
}

bool
candidateLess(const TuneCandidate &a, const TuneCandidate &b)
{
    if (a.makespanMs != b.makespanMs)
        return a.makespanMs < b.makespanMs;
    if (a.commBusyMs != b.commBusyMs)
        return a.commBusyMs < b.commBusyMs;
    if (a.peakMemMB != b.peakMemMB)
        return a.peakMemMB < b.peakMemMB;
    return a.spec < b.spec;
}

/** a dominates b: no worse everywhere, strictly better somewhere. */
bool
dominates(const TuneCandidate &a, const TuneCandidate &b)
{
    if (a.makespanMs > b.makespanMs || a.commBusyMs > b.commBusyMs ||
        a.peakMemMB > b.peakMemMB)
        return false;
    return a.makespanMs < b.makespanMs || a.commBusyMs < b.commBusyMs ||
           a.peakMemMB < b.peakMemMB;
}

/**
 * Fingerprint of the candidate set a search draws from and of the cost
 * model it prices them with: every registered schedule and its
 * declared params, in canonical-name order, and the gradient
 * partitioner's revision. Registering a schedule or changing the
 * partitioner changes it, so answers cached before (or by a build with
 * other schedules or another partitioner) are never served after.
 */
uint64_t
registryDigest()
{
    std::vector<core::ScheduleInfo> infos =
        core::ScheduleRegistry::instance().list();
    std::sort(infos.begin(), infos.end(),
              [](const core::ScheduleInfo &a, const core::ScheduleInfo &b) {
                  return a.name < b.name;
              });
    audit::Fingerprint fp;
    fp.mix(core::kPartitionRevision);
    for (const core::ScheduleInfo &info : infos) {
        fp.mix(info.name).mix(static_cast<uint64_t>(info.params.size()));
        for (const core::ScheduleParamInfo &p : info.params)
            fp.mix(p.key)
                .mix(static_cast<int>(p.type))
                .mix(p.defaultValue)
                .mix(p.minValue)
                .mix(p.maxValue)
                .mix(p.tunable);
    }
    return fp.digest();
}

/**
 * One answer as a JSON object at @p indent spaces (no trailing \n).
 * A non-null @p registry adds the advisor-cache file's per-entry
 * registry digest.
 */
std::string
entryJson(const TuneAnswer &a, int indent,
          const std::string *registry = nullptr)
{
    const std::string pad(indent, ' ');
    const std::string in(indent + 2, ' ');
    std::ostringstream oss;
    oss << pad << "{\n";
    oss << in << "\"query\": \"" << json::escape(a.queryKey) << "\",\n";
    if (registry != nullptr)
        oss << in << "\"registry\": \"" << *registry << "\",\n";
    oss << in << "\"best\": \"" << json::escape(a.best) << "\",\n";
    oss << in << "\"bestMakespanMs\": " << json::fmtDouble(a.bestMakespanMs)
        << ",\n";
    oss << in << "\"evaluated\": " << a.evaluated << ",\n";
    oss << in << "\"frontier\": [";
    for (size_t i = 0; i < a.frontier.size(); ++i) {
        const TuneCandidate &c = a.frontier[i];
        oss << (i == 0 ? "\n" : ",\n") << in << "  {\"spec\": \""
            << json::escape(c.spec) << "\", \"makespanMs\": "
            << json::fmtDouble(c.makespanMs) << ", \"commBusyMs\": "
            << json::fmtDouble(c.commBusyMs) << ", \"peakMemMB\": "
            << json::fmtDouble(c.peakMemMB) << "}";
    }
    if (!a.frontier.empty())
        oss << "\n" << in;
    oss << "]\n" << pad << "}";
    return oss.str();
}

#if FSMOE_AUDIT_ENABLED
/**
 * Payload fingerprint for the advisor-cache collision audit: the
 * canonical serialized entry (which deliberately excludes the
 * transient fromCache flag). A fresh search and a loaded cache file
 * must agree byte-for-byte on any key they share.
 */
uint64_t
fingerprintAnswer(const TuneAnswer &a)
{
    return audit::Fingerprint().mix(entryJson(a, 0)).digest();
}
#endif

/**
 * Inverse of entryJson with a registry digest, which lands in
 * *registry; false (with *error) on a malformed entry.
 */
bool
parseEntry(const json::Value &v, TuneAnswer *out, uint64_t *registry,
           std::string *error)
{
    if (v.kind != json::Value::Kind::Object) {
        *error = "cache entry is not an object";
        return false;
    }
    int64_t evaluated = 0;
    std::string digest;
    if (!json::asString(v.find("query"), &out->queryKey) ||
        !json::asString(v.find("registry"), &digest) ||
        !json::asString(v.find("best"), &out->best) ||
        !json::asNumber(v.find("bestMakespanMs"), &out->bestMakespanMs) ||
        !json::asInt(v.find("evaluated"), &evaluated)) {
        *error = "cache entry is missing query/registry/best/"
                 "bestMakespanMs/evaluated";
        return false;
    }
    if (evaluated < 0) {
        *error = "cache entry has a negative evaluated count";
        return false;
    }
    if (digest.size() != 16 ||
        digest.find_first_not_of("0123456789abcdef") != std::string::npos ||
        !parseNumber(digest, registry, 16)) {
        *error = "cache entry has a malformed registry digest '" + digest +
                 "'";
        return false;
    }
    out->evaluated = static_cast<size_t>(evaluated);
    const json::Value *frontier = v.find("frontier");
    if (frontier == nullptr ||
        frontier->kind != json::Value::Kind::Array) {
        *error = "cache entry is missing its frontier array";
        return false;
    }
    for (const json::Value &fv : frontier->array) {
        TuneCandidate c;
        if (!json::asString(fv.find("spec"), &c.spec) ||
            !json::asNumber(fv.find("makespanMs"), &c.makespanMs) ||
            !json::asNumber(fv.find("commBusyMs"), &c.commBusyMs) ||
            !json::asNumber(fv.find("peakMemMB"), &c.peakMemMB)) {
            *error = "malformed frontier entry";
            return false;
        }
        out->frontier.push_back(std::move(c));
    }
    // search() answers with the frontier's head, so any other entry
    // was not written by this program.
    if (out->frontier.empty()) {
        *error = "cache entry has an empty frontier";
        return false;
    }
    const TuneCandidate &head = out->frontier.front();
    if (out->best != head.spec ||
        out->bestMakespanMs != head.makespanMs) {
        *error = "cache entry's best is not its frontier's first entry";
        return false;
    }
    return true;
}

} // namespace

Scenario
TuneQuery::scenario() const
{
    Scenario s;
    s.model = model;
    s.cluster = cluster;
    s.batch = batch;
    s.seqLen = seqLen;
    s.numLayers = numLayers;
    s.numExperts = numExperts;
    s.rMax = rMax;
    return s;
}

std::vector<TuneCandidate>
paretoFrontier(std::vector<TuneCandidate> candidates)
{
    std::vector<TuneCandidate> uniq;
    std::unordered_set<std::string> seen;
    for (TuneCandidate &c : candidates)
        if (seen.insert(c.spec).second)
            uniq.push_back(std::move(c));

    std::vector<TuneCandidate> frontier;
    for (size_t i = 0; i < uniq.size(); ++i) {
        bool dominated = false;
        for (size_t j = 0; j < uniq.size() && !dominated; ++j)
            dominated = j != i && dominates(uniq[j], uniq[i]);
        if (!dominated)
            frontier.push_back(uniq[i]);
    }
    std::sort(frontier.begin(), frontier.end(), candidateLess);
    return frontier;
}

double
peakConcurrentCommMB(const sim::TaskGraph &graph, const sim::SimResult &sim,
                     const core::PerfModelSet &models)
{
    // (time, phase, id, signed bytes); phase 0 = finish, 1 = start, so
    // sorting processes finishes first at equal timestamps and
    // back-to-back chunks never double-count.
    struct Event
    {
        double time;
        int phase;
        sim::TaskId id;
        double bytes;
    };
    std::vector<Event> events;
    events.reserve(2 * sim.trace.size()); // a start and a finish each
    for (const sim::TaskTrace &tr : sim.trace) {
        const sim::Task &task = graph.task(tr.id);
        if (task.link == sim::Link::Compute)
            continue;
        const core::LinearModel *m = nullptr;
        switch (task.op) {
          case sim::OpType::AlltoAll: m = &models.alltoall; break;
          case sim::OpType::AllGather: m = &models.allgather; break;
          case sim::OpType::ReduceScatter:
            m = &models.reducescatter;
            break;
          case sim::OpType::GradAllReduce: m = &models.allreduce; break;
          default: break; // layout/compute ops carry no comm payload
        }
        if (m == nullptr)
            continue;
        const double bytes = std::max(0.0, m->inverse(task.duration));
        if (bytes <= 0.0)
            continue;
        events.push_back({tr.start, 1, tr.id, bytes});
        events.push_back({tr.finish, 0, tr.id, -bytes});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  if (a.time != b.time)
                      return a.time < b.time;
                  if (a.phase != b.phase)
                      return a.phase < b.phase;
                  return a.id < b.id;
              });
    double inflight = 0.0;
    double peak = 0.0;
    for (const Event &e : events) {
        inflight += e.bytes;
        peak = std::max(peak, inflight);
    }
    return peak / (1024.0 * 1024.0);
}

namespace {

/** Registry handles for the DE probe counters, resolved once. */
struct ProbeStats
{
    stats::Counter &evals = stats::counter("tuner.probe.evals");
    stats::Counter &memo = stats::counter("tuner.probe.memo");
    stats::Counter &cut = stats::counter("tuner.probe.cut");

    static ProbeStats &instance()
    {
        static ProbeStats s;
        return s;
    }
};

/** Registry handles for the frontier-pass counters, resolved once. */
struct FrontierStats
{
    stats::Counter &exact = stats::counter("tuner.frontier.exact");
    stats::Counter &cut = stats::counter("tuner.frontier.cut");
    stats::Counter &bounded = stats::counter("tuner.frontier.bounded");
    stats::Counter &memo = stats::counter("tuner.frontier.memo");

    static FrontierStats &instance()
    {
        static FrontierStats s;
        return s;
    }
};

} // namespace

Tuner::Tuner(TuneOptions options)
    : options_(options), engine_(SweepOptions{options_.numThreads})
{
}

std::string
Tuner::queryKey(const TuneQuery &query) const
{
    // The scenario cost key names the configuration; the search
    // settings are appended so a tuner with a different budget never
    // serves (or pollutes) another configuration's answer.
    std::ostringstream oss;
    oss << query.scenario().costKey() << "|grid="
        << kMaxGridPerAxis << ',' << kMaxGridSpecs
        << "|top=" << kFrontierCandidates << "|de="
        << options_.de.populationSize << 'x'
        << options_.de.maxGenerations << ",w="
        << json::fmtDouble(options_.de.weight) << ",cr="
        << json::fmtDouble(options_.de.crossover) << ",s="
        << options_.de.seed << ",tol="
        << json::fmtDouble(options_.de.tolerance);
    return oss.str();
}

TuneAnswer
Tuner::tune(const TuneQuery &query)
{
    const CacheKey key{queryKey(query), registryDigest()};
    auto it = cache_.find(key);
    if (it != cache_.end()) {
        TuneAnswer answer = it->second;
        answer.fromCache = true;
        return answer;
    }
    TuneAnswer answer = search(query);
    answer.queryKey = key.first;
    FSMOE_AUDIT(audit::checkCacheKey(
        "tuner.answer", key.first + "|registry=" + audit::hex16(key.second),
        fingerprintAnswer(answer)));
    cache_.emplace(key, answer);
    return answer;
}

TuneAnswer
Tuner::search(const TuneQuery &query)
{
    const core::ScheduleRegistry &registry =
        core::ScheduleRegistry::instance();
    const core::ModelCost cost =
        ScenarioRegistry::instance().makeCost(query.scenario());

    // Every distinct spec this search probes (grid candidates and DE
    // probes alike, cut or not). Only its size is read, as
    // `evaluated`, so its order does not matter.
    std::unordered_set<std::string> probedSpecs;

    // The schedule @p name builds from typed @p params; its spec() is
    // the canonical spec.
    const auto create = [&registry](const std::string &name,
                                    const core::ScheduleParams &params) {
        std::string error;
        std::unique_ptr<core::Schedule> schedule =
            registry.tryCreate(name, params, &error);
        if (schedule == nullptr)
            FSMOE_PANIC("tuner produced invalid parameters for '", name,
                        "': ", error);
        return schedule;
    };
    // What DE has learnt of each graph it probed, by
    // Schedule::graphKey: its exact makespan, or a proven lower bound
    // when a probe stopped at its cutoff. Specs with one key build one
    // graph, so a graph is priced once however many specs name it.
    struct Known
    {
        double makespanMs;
        bool exact;
    };
    std::unordered_map<std::string, Known> known;
    uint64_t evals = 0, memo = 0, cut = 0;

    // --- Candidate generation: per schedule, bare name + its derived
    // search space (small grids exhaustively, continuous spaces via
    // differential evolution seeded deterministically).
    std::vector<std::unique_ptr<core::Schedule>> candidates;
    std::vector<core::ScheduleParams> candidateParams; // what each took
    std::unordered_set<std::string> seen;
    const auto addCandidate = [&](const std::string &name,
                                  core::ScheduleParams params) {
        std::unique_ptr<core::Schedule> schedule = create(name, params);
        if (seen.insert(schedule->spec()).second) {
            candidates.push_back(std::move(schedule));
            candidateParams.push_back(std::move(params));
        }
    };

    for (const core::ScheduleInfo &info : registry.list()) {
        addCandidate(info.name, {});
        core::ParamSpace space = core::deriveParamSpace(
            info, query.rMax, kMaxGridPerAxis);
        if (space.axes.empty())
            continue;
        if (!space.continuous() &&
            space.gridSize() <= kMaxGridSpecs) {
            for (core::ScheduleParams &params :
                 core::enumerateGridParams(space, kMaxGridSpecs))
                addCandidate(space.schedule, std::move(params));
            continue;
        }
        // DE over the box; probes run one at a time on this thread.
        std::vector<double> lo, hi;
        for (const core::ParamAxis &axis : space.axes) {
            lo.push_back(axis.lo);
            hi.push_back(axis.hi);
        }
        // DE keeps a trial whose value is <= its parent's, so a probe
        // needs its exact makespan only up to the cutoff itself: it
        // asks for one below the next double up, and a probe that
        // provably lands past that stops there, often before its graph
        // is built. Every probe still counts towards `evaluated`.
        const auto objective = [&](const std::vector<double> &x,
                                   double cutoff) {
            const std::unique_ptr<core::Schedule> schedule =
                create(space.schedule, core::paramsFromPoint(space, x));
            probedSpecs.insert(schedule->spec());
            const double below = std::nextafter(
                cutoff, std::numeric_limits<double>::infinity());
            std::string key = schedule->graphKey(cost);
            auto it = known.find(key);
            if (it != known.end() &&
                (it->second.exact || it->second.makespanMs >= below)) {
                ++memo;
                return it->second.exact
                           ? it->second.makespanMs
                           : std::numeric_limits<double>::infinity();
            }
            ++evals;
            const double ms = engine_.makespanBelow(*schedule, cost, below);
            if (ms < below) {
                known[std::move(key)] = {ms, true};
            } else {
                ++cut;
                known[std::move(key)] = {below, false};
            }
            return ms;
        };
        const solver::DeResult de =
            solver::differentialEvolution(objective, lo, hi, options_.de);
        addCandidate(space.schedule, core::paramsFromPoint(space, de.x));
    }

    ProbeStats &ps = ProbeStats::instance();
    ps.evals.inc(evals);
    ps.memo.inc(memo);
    ps.cut.inc(cut);

    // --- Frontier pass: the candidates that can reach the metric
    // pass, which takes each schedule's best candidate plus the global
    // top-N by (makespan, spec). Candidates are visited best bound
    // first, each priced only below the larger of the N-th best so far
    // and its schedule's best so far: both only fall as the pass goes
    // on, so a candidate whose bound reaches that cutoff, or whose
    // price stops at it, is worse than the final N-th best and than
    // its schedule's final best, and the metric set is the one every
    // candidate priced in full would give. The cutoff's next double up
    // keeps a tie on makespan, which the spec then breaks.
    //
    // One entry per distinct Schedule::graphKey among the candidates:
    // specs with equal keys build one graph, so its bound is computed
    // once and it is priced once. An empty key names no shared graph.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    struct Graph
    {
        double bound = 0.0;
        /// Once priced, its exact makespan when `exact`, else the
        /// cutoff it was cut at, which its makespan reaches; NaN before.
        double makespanMs = std::numeric_limits<double>::quiet_NaN();
        bool exact = false;
        /// An exact price's graph and result, while a candidate holds
        /// them.
        std::weak_ptr<const core::SimulatedGraph> kept;
    };
    std::unordered_map<std::string, Graph> graphs;
    std::vector<Graph *> graphOf(candidates.size(), nullptr);
    std::vector<double> bound(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
        probedSpecs.insert(candidates[i]->spec());
        std::string key = candidates[i]->graphKey(cost);
        if (key.empty()) {
            bound[i] = candidates[i]->makespanLowerBound(cost);
            continue;
        }
        auto [it, fresh] = graphs.try_emplace(std::move(key));
        if (fresh)
            it->second.bound = candidates[i]->makespanLowerBound(cost);
        graphOf[i] = &it->second;
        bound[i] = it->second.bound;
    }
    std::vector<size_t> visit(candidates.size());
    std::iota(visit.begin(), visit.end(), size_t{0});
    std::stable_sort(visit.begin(), visit.end(), [&](size_t a, size_t b) {
        return bound[a] < bound[b];
    });

    // Each exactly priced candidate's graph and SimResult, shared by
    // the candidates of one key and held while one of them is in top
    // or its schedule's best: the metric pass reads them.
    std::vector<std::shared_ptr<const core::SimulatedGraph>> kept(
        candidates.size());
    uint64_t exact = 0, frontierCut = 0, bounded = 0, frontierMemo = 0;
    // The makespan of candidate i when below @p below, else +inf, with
    // its graph in kept[i]: from its key's entry when that already
    // decides it (counted in `frontierMemo`), else from the engine. A
    // degree search's winner also prices its fixed-degree twin, whose
    // graph it is: the same spec at the degree the search picked.
    const auto price = [&](size_t i, double below) {
        Graph *known = graphOf[i];
        if (known != nullptr && known->makespanMs >= below) {
            ++frontierMemo;
            return kInf;
        }
        if (known != nullptr && known->exact &&
            (kept[i] = known->kept.lock()) != nullptr) {
            ++frontierMemo;
            return known->makespanMs;
        }
        auto simulated = std::make_shared<core::SimulatedGraph>();
        const double ms = engine_.makespanBelow(*candidates[i], cost, below,
                                                simulated.get());
        const bool below_cutoff = ms < below;
        if (below_cutoff)
            kept[i] = simulated;
        if (known != nullptr)
            *known = {known->bound, below_cutoff ? ms : below, below_cutoff,
                      kept[i]};
        if (!below_cutoff || simulated->degree == 0)
            return ms;
        core::ScheduleParams params = candidateParams[i];
        params.setInt("degree", simulated->degree);
        const std::unique_ptr<core::Schedule> twin =
            registry.tryCreate(candidates[i]->name(), params, nullptr);
        auto entry = twin == nullptr ? graphs.end()
                                     : graphs.find(twin->graphKey(cost));
        if (entry != graphs.end() && std::isnan(entry->second.makespanMs))
            entry->second = {entry->second.bound, ms, true, kept[i]};
        return ms;
    };

    struct Priced
    {
        double makespanMs;
        const std::string *spec;
        size_t index; ///< Into candidates.
        bool operator<(const Priced &o) const
        {
            return betterProbe(makespanMs, *spec, o.makespanMs, *o.spec);
        }
    };
    std::vector<Priced> top; // the best N so far, sorted
    std::unordered_map<std::string, Priced> bestOfSchedule;
    const auto release = [&](size_t j) {
        const bool in_top =
            std::any_of(top.begin(), top.end(),
                        [j](const Priced &p) { return p.index == j; });
        if (!in_top && bestOfSchedule.at(candidates[j]->name()).index != j)
            kept[j] = nullptr;
    };
    for (size_t i : visit) {
        const core::Schedule &schedule = *candidates[i];
        auto best = bestOfSchedule.find(schedule.name());
        const double cutoff = std::max(
            top.size() < kFrontierCandidates ? kInf : top.back().makespanMs,
            best == bestOfSchedule.end() ? kInf : best->second.makespanMs);
        const double below = std::nextafter(cutoff, kInf);
        if (bound[i] >= below) {
            ++bounded;
            continue;
        }
        const double ms = price(i, below);
        if (!(ms < below)) {
            ++frontierCut;
            continue;
        }
        ++exact;
        const Priced priced{ms, &schedule.spec(), i};
        std::vector<size_t> evicted;
        if (best == bestOfSchedule.end()) {
            bestOfSchedule.emplace(schedule.name(), priced);
        } else if (priced < best->second) {
            evicted.push_back(best->second.index);
            best->second = priced;
        }
        top.insert(std::upper_bound(top.begin(), top.end(), priced),
                   priced);
        if (top.size() > kFrontierCandidates) {
            evicted.push_back(top.back().index);
            top.pop_back();
        }
        for (size_t j : evicted)
            release(j);
    }
    FrontierStats &fs = FrontierStats::instance();
    fs.exact.inc(exact);
    fs.cut.inc(frontierCut);
    fs.bounded.inc(bounded);
    fs.memo.inc(frontierMemo);

    // --- Metric pass: the comm/memory objectives of the short list,
    // from the graphs and traces the frontier pass kept, each shared
    // graph's peak computed once.
    std::set<size_t> metricSet;
    for (const auto &kv : bestOfSchedule)
        metricSet.insert(kv.second.index);
    for (const Priced &p : top)
        metricSet.insert(p.index);
    std::vector<TuneCandidate> evaluated;
    evaluated.reserve(metricSet.size());
    std::unordered_map<const core::SimulatedGraph *, double> peakOf;
    for (size_t i : metricSet) {
        const core::SimulatedGraph &g = *kept[i];
        auto [peak, fresh] = peakOf.try_emplace(&g, 0.0);
        if (fresh)
            peak->second = peakConcurrentCommMB(g.graph, g.sim, cost.models);
        TuneCandidate c;
        c.spec = candidates[i]->spec();
        c.makespanMs = g.sim.makespan;
        c.commBusyMs = g.sim.busyOf(sim::Link::InterNode) +
                       g.sim.busyOf(sim::Link::IntraNode);
        c.peakMemMB = peak->second;
        evaluated.push_back(std::move(c));
    }

    TuneAnswer answer;
    answer.frontier = paretoFrontier(std::move(evaluated));
    FSMOE_ASSERT(!answer.frontier.empty(),
                 "tuner search produced no candidates");
    // The frontier is sorted by makespan first, and the global
    // minimum-makespan candidate is always in the metric set, so the
    // frontier head *is* the answer (ties resolved toward lower comm,
    // then memory, then spec — stable on every run).
    answer.best = answer.frontier.front().spec;
    answer.bestMakespanMs = answer.frontier.front().makespanMs;
    answer.evaluated = probedSpecs.size();
    return answer;
}

bool
Tuner::loadCache(const std::string &path, std::string *error)
{
    std::string text;
    if (!fileio::readTextFile(path, &text, error))
        return false;
    json::Value root;
    std::string parse_error;
    if (!json::parse(text, &root, &parse_error)) {
        if (error)
            *error = "'" + path + "': " + parse_error;
        return false;
    }
    std::string schema;
    int64_t version = 0;
    if (!json::asString(root.find("schema"), &schema) ||
        schema != "fsmoe-advisor-cache" ||
        !json::asInt(root.find("version"), &version) || version != 2) {
        if (error)
            *error = "'" + path + "' is not a v2 fsmoe-advisor-cache";
        return false;
    }
    const json::Value *entries = root.find("entries");
    if (entries == nullptr ||
        entries->kind != json::Value::Kind::Array) {
        if (error)
            *error = "'" + path + "' has no entries array";
        return false;
    }
    std::vector<std::pair<CacheKey, TuneAnswer>> parsed;
    for (const json::Value &v : entries->array) {
        TuneAnswer a;
        uint64_t registry = 0;
        std::string entry_error;
        if (!parseEntry(v, &a, &registry, &entry_error)) {
            if (error)
                *error = "'" + path + "': " + entry_error;
            return false;
        }
        parsed.emplace_back(CacheKey{a.queryKey, registry}, std::move(a));
    }
    for (auto &[key, a] : parsed) {
        // A loaded entry must agree with any answer this process
        // already computed (or later computes) for the same key.
        FSMOE_AUDIT(audit::checkCacheKey(
            "tuner.answer", key.first + "|registry=" + audit::hex16(key.second),
            fingerprintAnswer(a)));
        cache_.emplace(key, std::move(a)); // in-memory wins
    }
    return true;
}

bool
Tuner::saveCache(const std::string &path, std::string *error) const
{
    std::ostringstream oss;
    oss << "{\n  \"schema\": \"fsmoe-advisor-cache\",\n"
        << "  \"version\": 2,\n  \"entries\": [";
    bool first = true;
    for (const auto &[key, answer] : cache_) {
        const std::string registry = audit::hex16(key.second);
        oss << (first ? "\n" : ",\n") << entryJson(answer, 4, &registry);
        first = false;
    }
    if (!cache_.empty())
        oss << "\n  ";
    oss << "]\n}\n";
    return fileio::atomicWriteFile(path, oss.str(), error);
}

std::string
Tuner::answerJson(const TuneAnswer &answer)
{
    std::ostringstream oss;
    oss << "{\n  \"schema\": \"fsmoe-tune-answer\",\n"
        << "  \"version\": 1,\n";
    // Splice the shared entry body in: drop its opening "{\n".
    const std::string body = entryJson(answer, 0);
    oss << body.substr(2) << "\n";
    return oss.str();
}

} // namespace fsmoe::runtime
