#include "runtime/sweep_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "base/audit.h"
#include "base/logging.h"
#include "base/stats.h"
#include "runtime/self_trace.h"

namespace fsmoe::runtime {

namespace {

/**
 * Registry handles for the engine's telemetry, resolved once. The
 * same counters back every SweepEngine in the process (the registry
 * is process-wide); the per-engine SweepStats struct remains the
 * per-lifetime view.
 */
struct EngineStats
{
    stats::Counter &scenarios = stats::counter("sweep.scenarios.completed");
    stats::Counter &costHits = stats::counter("sweep.costCache.hits");
    stats::Counter &costMisses = stats::counter("sweep.costCache.misses");
    stats::Histogram &costDeriveMs = stats::histogram("sweep.costDerive.ms");
    stats::Histogram &graphBuildMs = stats::histogram("sweep.graphBuild.ms");
    stats::Histogram &simulateMs = stats::histogram("sweep.simulate.ms");
    stats::Counter &handedBack = stats::counter("sweep.simulate.handedBack");
    stats::Histogram &sweepWallMs = stats::histogram("sweep.wall.ms");

    static EngineStats &instance()
    {
        static EngineStats s;
        return s;
    }
};

#if FSMOE_AUDIT_ENABLED

/**
 * Field-by-field payload fingerprint for the cache-key collision
 * audit (base/audit.h): two payloads fingerprint equal iff every field
 * is bit-identical, matching the byte-identity contract the cost cache
 * must preserve.
 */
void
mixModel(audit::Fingerprint *fp, const core::LinearModel &m)
{
    fp->mix(m.alpha).mix(m.beta).mix(m.r2);
}

uint64_t
fingerprintCost(const core::ModelCost &c)
{
    audit::Fingerprint fp;
    mixModel(&fp, c.models.alltoall);
    mixModel(&fp, c.models.allgather);
    mixModel(&fp, c.models.reducescatter);
    mixModel(&fp, c.models.allreduce);
    mixModel(&fp, c.models.gemm);
    fp.mix(static_cast<uint64_t>(c.layers.size()));
    for (const core::LayerCost &l : c.layers) {
        const core::Workload &w = l.workload;
        fp.mix(w.a2aBytes).mix(w.agBytes).mix(w.rsBytes);
        fp.mix(w.expertMacs).mix(w.expertGemms).mix(w.attnMacs);
        fp.mix(w.routingMacs).mix(w.orderBytes).mix(w.gradBytes);
        for (const core::PhaseTimes *p : {&l.fwd, &l.bwd}) {
            fp.mix(p->a2a).mix(p->allgather).mix(p->reducescatter);
            fp.mix(p->experts).mix(p->routing).mix(p->order);
            fp.mix(p->attention).mix(p->gradAllReduce);
        }
    }
    fp.mix(c.rMax).mix(c.dsA2aOverhead).mix(c.dsKernelOverhead);
    return fp.digest();
}

#endif // FSMOE_AUDIT_ENABLED

} // namespace

SweepEngine::SweepEngine(SweepOptions options) : options_(options) {}

SweepStats
SweepEngine::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
SweepEngine::clearCostCache()
{
    std::lock_guard<std::mutex> lock(mu_);
    cost_cache_.clear();
}

std::shared_ptr<const core::ModelCost>
SweepEngine::costFor(const Scenario &s)
{
    const std::string key = s.costKey();
    std::promise<std::shared_ptr<const core::ModelCost>> promise;
    std::shared_future<std::shared_ptr<const core::ModelCost>> hit;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = cost_cache_.find(key);
        if (it != cost_cache_.end()) {
            ++stats_.costCacheHits;
            hit = it->second;
        } else {
            ++stats_.costCacheMisses;
            cost_cache_.emplace(key, promise.get_future().share());
        }
    }
    EngineStats &es = EngineStats::instance();
    if (hit.valid()) {
        es.costHits.inc();
        return hit.get(); // may wait on the in-flight computing worker
    }
    es.costMisses.inc();
    try {
        const auto c0 = std::chrono::steady_clock::now();
        auto cost = [&] {
            SelfSpan span("costDerive", "stage");
            return std::make_shared<const core::ModelCost>(
                ScenarioRegistry::instance().makeCost(s));
        }();
        const auto c1 = std::chrono::steady_clock::now();
        const double derive_ms =
            std::chrono::duration<double, std::milli>(c1 - c0).count();
        es.costDeriveMs.observe(derive_ms);
        {
            std::lock_guard<std::mutex> lock(mu_);
            stats_.costDeriveMs += derive_ms;
        }
        // Every cold compute registers its payload fingerprint: a
        // second compute of the same key with different bytes means
        // costKey() under-identifies the scenario — panic, not cache.
        FSMOE_AUDIT(audit::checkCacheKey("sweep.cost", key,
                                         fingerprintCost(*cost)));
        promise.set_value(cost);
        return cost;
    } catch (...) {
        // Propagate to in-flight waiters but drop the entry, so a
        // fixed preset (re-registered builder) can succeed later
        // instead of replaying a stale failure forever.
        promise.set_exception(std::current_exception());
        {
            std::lock_guard<std::mutex> lock(mu_);
            cost_cache_.erase(key);
        }
        throw;
    }
}

sim::SimResult
SweepEngine::timedSimulate(const Scenario &s, const core::ModelCost &cost)
{
    // Schedule::simulate() with its two stages timed apart. A degree
    // search hands back its winner's result, simulated inside the
    // build: that scenario charges only graph build.
    const auto t0 = std::chrono::steady_clock::now();
    sim::TaskGraph graph;
    std::optional<sim::SimResult> searched;
    {
        SelfSpan span("graphBuild", "stage");
        auto schedule = core::Schedule::create(s.schedule);
        graph = schedule->buildSimulated(cost, searched);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const bool handed_back = searched.has_value();
    sim::SimResult result;
    if (searched) {
        result = std::move(*searched);
    } else {
        SelfSpan span("simulate", "stage");
        result = sim::Simulator{}.run(graph);
    }
    const auto t2 = std::chrono::steady_clock::now();
    const double build_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double simulate_ms =
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    EngineStats &es = EngineStats::instance();
    es.graphBuildMs.observe(build_ms);
    if (handed_back)
        es.handedBack.inc();
    else
        es.simulateMs.observe(simulate_ms);
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.graphBuildMs += build_ms;
        if (!handed_back)
            stats_.simulateMs += simulate_ms;
    }
    return result;
}

double
SweepEngine::makespanBelow(const core::Schedule &schedule,
                           const core::ModelCost &cost, double cutoff,
                           core::SimulatedGraph *kept)
{
    const auto t0 = std::chrono::steady_clock::now();
    double makespan;
    {
        SelfSpan span("graphBuild", "stage");
        makespan = schedule.makespanBelow(cost, cutoff, kept);
    }
    const double build_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    EngineStats::instance().graphBuildMs.observe(build_ms);
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.graphBuildMs += build_ms;
    }
    return makespan;
}

ScenarioResult
SweepEngine::evaluate(const Scenario &s)
{
    SelfSpan span(s.label(), "scenario");
    auto cost = costFor(s);
    ScenarioResult out;
    out.scenario = s;
    out.sim = timedSimulate(s, *cost);
    out.makespanMs = out.sim.makespan;
    EngineStats::instance().scenarios.inc();
    return out;
}

std::vector<ScenarioResult>
SweepEngine::run(const std::vector<Scenario> &scenarios)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<ScenarioResult> results(scenarios.size());

    // Workers claim indices in ascending order from one counter, and
    // the calling thread is one of them: a one-scenario or one-thread
    // sweep starts no thread. A throw stops further claims; every
    // index below a claimed one was claimed too, so the lowest failing
    // index is the one a serial loop would have thrown first.
    const size_t n = scenarios.size();
    std::atomic<size_t> next{0};
    std::mutex error_mu;
    size_t error_index = n;
    std::exception_ptr error;
    const auto work = [&] {
        for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
            try {
                results[i] = evaluate(scenarios[i]);
            } catch (...) {
                next.store(n); // no further claims
                std::lock_guard<std::mutex> lock(error_mu);
                if (i < error_index) {
                    error_index = i;
                    error = std::current_exception();
                }
                return;
            }
        }
    };
    const unsigned threads =
        options_.numThreads > 0
            ? static_cast<unsigned>(options_.numThreads)
            : std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::thread> helpers;
    for (size_t t = 1; t < std::min<size_t>(threads, n); ++t)
        helpers.emplace_back(work);
    work();
    for (std::thread &t : helpers)
        t.join();
    if (error)
        std::rethrow_exception(error);

    const auto t1 = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    EngineStats::instance().sweepWallMs.observe(wall_ms);
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.scenariosRun += scenarios.size();
        stats_.lastSweepWallMs = wall_ms;
    }
    return results;
}

} // namespace fsmoe::runtime
