#include "core/solver_cache.h"

#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "base/audit.h"
#include "base/stats.h"

namespace fsmoe::core {

namespace {

/**
 * One solver tier's statistics: its SolverCacheStats fields and their
 * registry mirrors `<name>.hits`, `.misses` and `.solve.ms`, so
 * `--metrics-json` snapshots see the solver tiers next to the sweep
 * caches. clearSolverCaches() resets the local struct only — the
 * registry stays cumulative until Registry::reset().
 */
struct Tier
{
    const char *name; ///< Registry prefix, also the audit domain.
    uint64_t SolverCacheStats::*hits;
    uint64_t SolverCacheStats::*misses;
    double SolverCacheStats::*solveMs;
    stats::Counter &regHits = stats::counter(std::string(name) + ".hits");
    stats::Counter &regMisses =
        stats::counter(std::string(name) + ".misses");
    stats::Histogram &regSolveMs =
        stats::histogram(std::string(name) + ".solve.ms");
};

/** Both tiers, registered together on first use of either. */
struct Tiers
{
    Tier pipeline{"solver.pipeline", &SolverCacheStats::pipelineHits,
                  &SolverCacheStats::pipelineMisses,
                  &SolverCacheStats::pipelineSolveMs};
    Tier partition{"solver.partition", &SolverCacheStats::partitionHits,
                   &SolverCacheStats::partitionMisses,
                   &SolverCacheStats::partitionSolveMs};

    static Tiers &instance()
    {
        static Tiers t;
        return t;
    }
};

/// Entry-count ceiling per cache; a full cache is dropped wholesale.
/// Keys are distinct solver inputs, so ordinary sweeps stay far below
/// this — the cap only guards pathological never-repeating workloads
/// from unbounded growth.
constexpr size_t kMaxEntries = 1 << 18;

void
appendBits(std::string &key, double v)
{
    char raw[sizeof v];
    std::memcpy(raw, &v, sizeof v);
    key.append(raw, sizeof raw);
}

void
appendBits(std::string &key, int64_t v)
{
    char raw[sizeof v];
    std::memcpy(raw, &v, sizeof v);
    key.append(raw, sizeof raw);
}

void
appendTaskModel(std::string &key, const TaskModel &m)
{
    appendBits(key, m.alpha);
    appendBits(key, m.beta);
    appendBits(key, m.n);
}

void
appendProblem(std::string &key, const PipelineProblem &p)
{
    appendTaskModel(key, p.a2a);
    appendTaskModel(key, p.ag);
    appendTaskModel(key, p.rs);
    appendTaskModel(key, p.exp);
    appendBits(key, p.tGar);
    appendBits(key, static_cast<int64_t>(p.rMax));
}

struct Timer
{
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();

    double elapsedMs() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    }
};

std::mutex mu;
// Thread-safety: both caches and the stats struct are guarded by mu;
// values are immutable once stored (shared_ptr<const T>).
std::unordered_map<std::string, std::shared_ptr<const PipelineSolution>>
    pipeline_cache;
std::unordered_map<std::string, std::shared_ptr<const GradPartitionPlan>>
    partition_cache;
// Guarded by mu.
SolverCacheStats stats;

#if FSMOE_AUDIT_ENABLED

/**
 * Payload fingerprints for the cache-key collision audit: with
 * bit-pattern keys, two byte-different solutions under one key would
 * mean the key misses an input the solver reads.
 */
uint64_t
fingerprintSolution(const PipelineSolution &s)
{
    audit::Fingerprint fp;
    fp.mix(s.rContinuous).mix(s.r).mix(s.tMoe).mix(s.caseId);
    fp.mix(s.tOlpMoe);
    return fp.digest();
}

uint64_t
fingerprintPlan(const GradPartitionPlan &p)
{
    audit::Fingerprint fp;
    for (const std::vector<double> *v :
         {&p.denseBytes, &p.moeBytes, &p.tGar}) {
        fp.mix(static_cast<uint64_t>(v->size()));
        for (double d : *v)
            fp.mix(d);
    }
    fp.mix(static_cast<uint64_t>(p.solutions.size()));
    for (const PipelineSolution &s : p.solutions)
        fp.mix(fingerprintSolution(s));
    fp.mix(p.exposedBytes).mix(p.totalTimeMs).mix(p.deGenerations);
    return fp.digest();
}

#endif // FSMOE_AUDIT_ENABLED

/**
 * Names a fingerprint functor only when audits are compiled in; in
 * Release the functions above do not exist and the placeholder is
 * never invoked (FSMOE_AUDIT bodies compile to nothing).
 */
#if FSMOE_AUDIT_ENABLED
#define FSMOE_SOLVER_FP(fn) (fn)
#else
#define FSMOE_SOLVER_FP(fn) 0
#endif

/**
 * Shared lookup/compute/store protocol. Values are held by shared_ptr
 * so a hit only copies a pointer under the lock — the (potentially
 * multi-vector) value itself is copied for the caller outside the
 * critical section, and stays valid even if the cache is cleared
 * concurrently. The solve also runs outside the lock; concurrent cold
 * misses on one key may duplicate work but always store identical
 * values.
 */
template <typename Map, typename Solve, typename Fingerprint>
auto
memoized(Map &cache, const Tier &tier, const std::string &key, Solve &&solve,
         Fingerprint &&fingerprint)
{
    (void)fingerprint;
    typename Map::mapped_type entry;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = cache.find(key);
        if (it != cache.end()) {
            stats.*tier.hits += 1;
            entry = it->second;
        } else {
            stats.*tier.misses += 1;
        }
    }
    if (entry != nullptr) {
        tier.regHits.inc();
        return *entry;
    }
    tier.regMisses.inc();
    Timer timer;
    auto value = std::make_shared<
        typename Map::mapped_type::element_type>(solve());
    const double ms = timer.elapsedMs();
    tier.regSolveMs.observe(ms);
    // Cold solves register their payload fingerprint; a later compute
    // of the same bit-pattern key must produce identical bytes.
    FSMOE_AUDIT(audit::checkCacheKey(tier.name, key, fingerprint(*value)));
    {
        std::lock_guard<std::mutex> lock(mu);
        stats.*tier.solveMs += ms;
        if (cache.size() >= kMaxEntries)
            cache.clear();
        cache.emplace(key, value);
    }
    return *value;
}

} // namespace

PipelineSolution
cachedSolvePipeline(const PipelineProblem &p)
{
    std::string key(1, 'S');
    appendProblem(key, p);
    return memoized(pipeline_cache, Tiers::instance().pipeline, key,
                    [&] { return solvePipeline(p); },
                    FSMOE_SOLVER_FP(fingerprintSolution));
}

PipelineSolution
cachedSolvePipelineMerged(const PipelineProblem &p)
{
    std::string key(1, 'M');
    appendProblem(key, p);
    return memoized(pipeline_cache, Tiers::instance().pipeline, key,
                    [&] { return solvePipelineMerged(p); },
                    FSMOE_SOLVER_FP(fingerprintSolution));
}

GradPartitionPlan
cachedPartitionGradients(const std::vector<GeneralizedLayer> &layers,
                         const LinearModel &allreduce, bool enable_step2,
                         bool merged_channel)
{
    std::string key(1, 'P');
    key.reserve(2 + layers.size() * 16 * sizeof(double));
    appendBits(key, static_cast<int64_t>(layers.size()));
    for (const GeneralizedLayer &gl : layers) {
        appendProblem(key, gl.moe);
        appendBits(key, gl.denseOlpMs);
        appendBits(key, gl.gradBytes);
    }
    appendBits(key, allreduce.alpha);
    appendBits(key, allreduce.beta);
    key.push_back(enable_step2 ? '1' : '0');
    key.push_back(merged_channel ? '1' : '0');
    return memoized(partition_cache, Tiers::instance().partition, key,
                    [&] {
                        return partitionGradients(layers, allreduce,
                                                  enable_step2,
                                                  merged_channel);
                    },
                    FSMOE_SOLVER_FP(fingerprintPlan));
}

GradPartitionPlan
cachedPartitionGradients(const std::vector<GeneralizedLayer> &layers,
                         const LinearModel &allreduce,
                         const solver::DeConfig &de, bool enable_step2,
                         bool merged_channel)
{
    (void)de;
    return cachedPartitionGradients(layers, allreduce, enable_step2,
                                    merged_channel);
}

SolverCacheStats
solverCacheStats()
{
    std::lock_guard<std::mutex> lock(mu);
    return stats;
}

void
clearSolverCaches()
{
    std::lock_guard<std::mutex> lock(mu);
    pipeline_cache.clear();
    partition_cache.clear();
    stats = SolverCacheStats{};
}

} // namespace fsmoe::core
