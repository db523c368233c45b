#include "runtime/tuner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "base/audit.h"
#include "base/fileio.h"
#include "base/json.h"
#include "base/logging.h"
#include "core/schedules/param_space.h"
#include "core/schedules/schedule_registry.h"

namespace fsmoe::runtime {

namespace {

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
 * Fingerprint of the candidate set a search draws from: every
 * registered schedule and its declared params, in canonical-name
 * order. Registering a schedule changes it, so answers cached before
 * (or by a build with other schedules) are never served after.
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

/** @p digest as the 16 hex digits the advisor-cache file stores. */
std::string
hexDigest(uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
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
    double evaluated = 0.0;
    std::string digest;
    if (!json::asString(v.find("query"), &out->queryKey) ||
        !json::asString(v.find("registry"), &digest) ||
        !json::asString(v.find("best"), &out->best) ||
        !json::asNumber(v.find("bestMakespanMs"), &out->bestMakespanMs) ||
        !json::asNumber(v.find("evaluated"), &evaluated)) {
        *error = "cache entry is missing query/registry/best/"
                 "bestMakespanMs/evaluated";
        return false;
    }
    if (digest.size() != 16 ||
        digest.find_first_not_of("0123456789abcdef") != std::string::npos) {
        *error = "cache entry has a malformed registry digest '" + digest +
                 "'";
        return false;
    }
    *registry = std::strtoull(digest.c_str(), nullptr, 16);
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
    events.reserve(sim.trace.size());
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

SweepOptions
engineOptions(const TuneOptions &options)
{
    SweepOptions sweep;
    sweep.numThreads = options.numThreads;
    return sweep;
}

} // namespace

Tuner::Tuner(TuneOptions options)
    : options_(options), engine_(engineOptions(options_))
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
        << options_.maxGridPerAxis << ',' << options_.maxGridSpecs
        << "|top=" << options_.frontierCandidates << "|de="
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
        "tuner.answer", key.first + "|registry=" + hexDigest(key.second),
        fingerprintAnswer(answer)));
    cache_.emplace(key, answer);
    return answer;
}

TuneAnswer
Tuner::search(const TuneQuery &query)
{
    const core::ScheduleRegistry &registry =
        core::ScheduleRegistry::instance();
    const Scenario base = query.scenario();

    // Every distinct spec this search simulates (grid candidates and
    // DE probes alike), kept sorted so `evaluated` and candidate
    // handling are independent of discovery order.
    std::set<std::string> probedSpecs;

    const auto canonical = [&registry](const std::string &spec) {
        std::string canon, error;
        if (!registry.canonicalize(spec, &canon, &error))
            FSMOE_PANIC("tuner produced an invalid spec '", spec,
                        "': ", error);
        return canon;
    };
    const auto probe = [&](const std::string &spec) {
        Scenario s = base;
        s.schedule = spec;
        probedSpecs.insert(spec);
        return engine_.run({s})[0].makespanMs;
    };

    // --- Candidate generation: per schedule, bare name + its derived
    // search space (small grids exhaustively, continuous spaces via
    // differential evolution seeded deterministically).
    std::vector<std::pair<std::string, std::string>> candidates;
    std::unordered_set<std::string> seen;
    const auto addCandidate = [&](const std::string &schedule,
                                  const std::string &spec) {
        if (seen.insert(spec).second)
            candidates.emplace_back(schedule, spec);
    };

    for (const core::ScheduleInfo &info : registry.list()) {
        addCandidate(info.name, info.name);
        core::ParamSpace space = core::deriveParamSpace(
            info, query.rMax, options_.maxGridPerAxis);
        if (space.axes.empty())
            continue;
        if (!space.continuous() &&
            space.gridSize() <= options_.maxGridSpecs) {
            for (const std::string &spec :
                 core::enumerateGridSpecs(space, options_.maxGridSpecs))
                addCandidate(info.name, canonical(spec));
            continue;
        }
        // DE over the box; probes run one scenario at a time (so the
        // sequence is identical on every thread count) and revisited
        // specs hit the engine's SimResult cache.
        std::vector<double> lo, hi;
        for (const core::ParamAxis &axis : space.axes) {
            lo.push_back(axis.lo);
            hi.push_back(axis.hi);
        }
        // Every probe counts towards `evaluated`, so each one is
        // simulated in full and the cutoff is ignored.
        const auto objective = [&](const std::vector<double> &x, double) {
            return probe(canonical(core::specFromPoint(space, x)));
        };
        const solver::DeResult de =
            solver::differentialEvolution(objective, lo, hi, options_.de);
        addCandidate(info.name, canonical(core::specFromPoint(space, de.x)));
    }

    // --- Probe pass: every candidate, cached, in parallel.
    std::vector<Scenario> scenarios;
    scenarios.reserve(candidates.size());
    for (const auto &c : candidates) {
        Scenario s = base;
        s.schedule = c.second;
        scenarios.push_back(std::move(s));
        probedSpecs.insert(c.second);
    }
    const std::vector<ScenarioResult> probes = engine_.run(scenarios);

    // --- Select the metric-pass set: each schedule's best candidate
    // plus the global top-N by makespan.
    std::unordered_map<std::string, size_t> bestOfSchedule;
    for (size_t i = 0; i < candidates.size(); ++i) {
        auto it = bestOfSchedule.find(candidates[i].first);
        if (it == bestOfSchedule.end() ||
            betterProbe(probes[i].makespanMs, candidates[i].second,
                        probes[it->second].makespanMs,
                        candidates[it->second].second))
            bestOfSchedule[candidates[i].first] = i;
    }
    std::vector<size_t> order(candidates.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return betterProbe(probes[a].makespanMs, candidates[a].second,
                           probes[b].makespanMs, candidates[b].second);
    });
    std::set<std::string> metricSpecs;
    for (const auto &kv : bestOfSchedule)
        metricSpecs.insert(candidates[kv.second].second);
    for (size_t i = 0;
         i < order.size() && i < options_.frontierCandidates; ++i)
        metricSpecs.insert(candidates[order[i]].second);

    // --- Metric pass: re-run the short list with graphs retained and
    // compute the comm/memory objectives from each trace.
    std::vector<Scenario> metricScenarios;
    for (const std::string &spec : metricSpecs) {
        Scenario s = base;
        s.schedule = spec;
        metricScenarios.push_back(std::move(s));
    }
    const std::vector<ScenarioResult> metrics =
        engine_.run(metricScenarios, /*keep_graphs=*/true);
    const core::ModelCost cost =
        ScenarioRegistry::instance().makeCost(base);

    std::vector<TuneCandidate> evaluated;
    evaluated.reserve(metrics.size());
    for (const ScenarioResult &r : metrics) {
        TuneCandidate c;
        c.spec = r.scenario.schedule;
        c.makespanMs = r.makespanMs;
        c.commBusyMs = r.sim.busyOf(sim::Link::InterNode) +
                       r.sim.busyOf(sim::Link::IntraNode);
        c.peakMemMB = peakConcurrentCommMB(r.graph, r.sim, cost.models);
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
            "tuner.answer", key.first + "|registry=" + hexDigest(key.second),
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
        const std::string registry = hexDigest(key.second);
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
