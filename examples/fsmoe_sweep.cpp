/**
 * @file
 * fsmoe_sweep — the parallel scenario-sweep driver.
 *
 * Evaluates a (model x cluster x batch) grid across a schedule-spec
 * axis on the sweep engine's threads and prints, per
 * configuration, a makespan-ranked table of the schedules. The demo
 * grid covers every registered schedule plus a parameterized
 * tutel?degree={2,4,8} axis; --schedules replaces that axis with
 * arbitrary specs. Results can be persisted (JSON/CSV), diffed
 * against a stored baseline with a tolerance gate, and the grid can
 * be sharded across processes. Options:
 *
 *   --threads N      worker threads, or worker processes on the
 *                    fault-tolerant path (default: hardware concurrency)
 *   --batches LIST   comma-separated per-GPU batch sizes (default: 1,2)
 *   --schedules LIST comma-separated schedule specs (names, aliases,
 *                    or parameterized variants like tutel?degree=4);
 *                    replaces the demo grid's schedule axis
 *   --list-schedules print every registered schedule (canonical name,
 *                    aliases, declared params, description) and exit
 *   --trace FILE     export the best-ranked scenario of the grid as
 *                    Chrome trace JSON (open in chrome://tracing)
 *   --out-json FILE  persist the sweep's results as JSON
 *   --out-csv FILE   persist the sweep's results as CSV
 *   --diff BASELINE  compare this sweep against a stored result file
 *                    (.json or .csv); exits 1 if any scenario's
 *                    makespan drifts beyond the tolerance or the
 *                    scenario sets differ
 *   --tolerance PCT  relative drift allowed by --diff, in percent
 *                    (default 0 = bit-exact)
 *   --shard K/N      run only the K-th of N contiguous grid slices;
 *                    persisted shard files merge (fsmoe_diff --merge)
 *                    into a byte-identical unsharded result
 *   --profile        print a per-stage wall-time breakdown after the
 *                    sweep (cost derivation, graph build, solver,
 *                    simulate, caches) plus registry-backed cache hit
 *                    ratios and per-scenario simulate latency; see
 *                    docs/PERFORMANCE.md
 *   --explain WHICH  per-run analytics for one scenario of the grid:
 *                    link utilization and the critical path with the
 *                    reason each hop could start no earlier. WHICH is
 *                    a scenario label (as printed by --shard /
 *                    persisted keys) or "best" for the grid's fastest
 *   --link-util      include per-link busy-time columns in --out-json
 *                    / --out-csv rows (link_busy_ms object / extra
 *                    CSV columns; readers take the group if present)
 *   --metrics-json F dump the process-wide stats registry snapshot
 *                    (base/stats) to F after the sweep
 *   --self-trace F   record the sweep's own execution (scenario and
 *                    stage spans on each worker thread) as Chrome
 *                    trace JSON into F; see docs/OBSERVABILITY.md
 *
 * --trace and --explain re-simulate the one scenario they show after
 * the sweep, plain or fault-tolerant: the same build-then-simulate
 * sequence the sweep priced it with, so its graph and timeline are the
 * swept record's, bit for bit. They add that one build and simulation
 * to the --metrics-json registry.
 *
 * Fault tolerance (docs/ROBUSTNESS.md) — any of these flags (or the
 * FSMOE_FAULT environment variable) runs the grid on the sweep
 * service's supervisor (service/sweep_server.h): forked worker
 * processes under a heartbeat watchdog, so a crash or hang costs only
 * the scenario the worker was running one attempt, and a scenario that keeps failing
 * is quarantined instead of aborting the sweep (--trace and --explain
 * never pick it); healthy results stay byte-identical to the plain
 * engine's:
 *
 *   --journal FILE   append each finished scenario to a checksummed
 *                    journal (fsync'd), so a killed sweep can resume
 *   --resume         with --journal: recover the journal, re-simulate
 *                    only what is missing; the final --out-json/--out-csv
 *                    is byte-identical to an uninterrupted run
 *   --isolate        take the fault-tolerant path without a journal
 *   --timeout-ms N   heartbeat watchdog: a busy worker silent this long
 *                    is killed (default 30000)
 *   --max-attempts N assignments before a scenario is quarantined
 *                    (default 3)
 *   --inject SPEC    deterministic fault injection, e.g.
 *                    "seed=7,eval=0.3,crash=0.1,timeout=0.05,torn=0.2,
 *                    kill-after=12" or "stop-after=10", the
 *                    deterministic way to exercise the graceful-stop
 *                    path below (see runtime/fault.h)
 *
 * Graceful stop: on the fault-tolerant path SIGINT/SIGTERM do
 * not kill the sweep mid-write — the journal record in flight is
 * flushed, no new scenario starts, a resume hint is printed, and the
 * process exits with the conventional 128+signal code (130/143). No
 * partial --out-json/--out-csv is written; resume from the journal
 * to converge to the uninterrupted run's bytes. A second signal
 * falls through to the default disposition and kills immediately.
 */
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "base/fileio.h"
#include "base/interrupt.h"
#include "base/number.h"
#include "base/stats.h"
#include "core/schedules/schedule_registry.h"
#include "core/solver_cache.h"
#include "runtime/fault.h"
#include "runtime/journal.h"
#include "runtime/result_store.h"
#include "runtime/scenario.h"
#include "runtime/self_trace.h"
#include "runtime/sweep_engine.h"
#include "runtime/trace_export.h"
#include "service/job.h"
#include "service/sweep_server.h"
#include "sim/run_report.h"

namespace {

using namespace fsmoe;

/**
 * The value of integer flag @p flag: all of @p arg must be a decimal
 * in [@p min, INT_MAX], else "bad FLAG 'ARG'" and exit 2.
 */
int
intFlag(const char *flag, const char *arg, int min)
{
    int v = 0;
    if (!parseNumber(arg, &v) || v < min) {
        std::fprintf(stderr, "bad %s '%s'\n", flag, arg);
        std::exit(2);
    }
    return v;
}

/**
 * Split a comma-separated list of schedule specs; validity is checked
 * by ScenarioGrid::build() (fatal with the list of known schedules).
 */
std::vector<std::string>
parseSchedules(const char *arg)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char *p = arg;; ++p) {
        if (*p == ',' || *p == '\0') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
            if (*p == '\0')
                break;
        } else {
            cur += *p;
        }
    }
    if (out.empty()) {
        std::fprintf(stderr, "--schedules needs at least one spec\n");
        std::exit(2);
    }
    return out;
}

/** --list-schedules: the registry, formatted for discovery. */
void
listSchedules()
{
    for (const core::ScheduleInfo &info :
         core::ScheduleRegistry::instance().list()) {
        std::printf("%s", info.name.c_str());
        if (!info.aliases.empty()) {
            std::printf("  (aliases:");
            for (const std::string &alias : info.aliases)
                std::printf(" %s", alias.c_str());
            std::printf(")");
        }
        std::printf("\n    %s\n", info.description.c_str());
        for (const core::ScheduleParamInfo &p : info.params) {
            std::printf("    %s=%s (%s)  %s\n", p.key.c_str(),
                        p.defaultValue.c_str(),
                        core::scheduleParamTypeName(p.type),
                        p.description.c_str());
        }
    }
}

void
printRanked(const std::vector<runtime::SweepResult> &records)
{
    // Group scenarios by configuration (= costKey) in first-seen order.
    std::vector<std::string> order;
    std::map<std::string, std::vector<const runtime::SweepResult *>> groups;
    for (const auto &r : records) {
        const std::string key = r.scenario.costKey();
        if (groups.find(key) == groups.end())
            order.push_back(key);
        groups[key].push_back(&r);
    }

    for (const std::string &key : order) {
        auto ranked = groups[key];
        // Healthy rows rank by makespan; quarantined rows sink to the
        // bottom (their makespan is a meaningless zero).
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto *x, const auto *y) {
                      const bool xok = x->status == runtime::ResultStatus::Ok;
                      const bool yok = y->status == runtime::ResultStatus::Ok;
                      if (xok != yok)
                          return xok;
                      return x->makespanMs < y->makespanMs;
                  });
        const runtime::Scenario &s0 = ranked.front()->scenario;
        std::printf("\n%s on %s, B=%lld, L=%lld\n", s0.model.c_str(),
                    s0.cluster.c_str(), static_cast<long long>(s0.batch),
                    static_cast<long long>(s0.seqLen));
        std::printf("  %-4s %-16s %12s %9s\n", "rank", "schedule",
                    "iter [ms]", "vs best");
        for (size_t i = 0; i < ranked.size(); ++i) {
            if (ranked[i]->status != runtime::ResultStatus::Ok) {
                std::printf("  %-4s %-16s %12s  (%s after %d attempts: "
                            "%s)\n",
                            "-", ranked[i]->scenario.schedule.c_str(), "-",
                            runtime::resultStatusName(ranked[i]->status),
                            ranked[i]->attempts, ranked[i]->error.c_str());
                continue;
            }
            std::printf("  %-4zu %-16s %12.2f %8.2fx\n", i + 1,
                        ranked[i]->scenario.schedule.c_str(),
                        ranked[i]->makespanMs,
                        ranked[i]->makespanMs / ranked.front()->makespanMs);
        }
    }
}

/**
 * --profile: where did the sweep's time go? Stage times are summed
 * across workers (they can exceed wall time on multiple threads); cost
 * derivation counts only cost-cache misses. The two solver lines
 * re-slice part of the graph-build line: Algorithm-1 and
 * gradient-partition solves happen inside Schedule::build, so
 * cold-solve time is included in "graph build" and broken out per
 * solver from the process-wide solver cache.
 * A Tutel/Lina degree search simulates its winner inside the build and
 * hands the result back, so "simulate (final graphs)" and the cold
 * simulation count cover only graphs that no search simulated.
 */
void
printProfile(const runtime::SweepStats &stats)
{
    const core::SolverCacheStats solver = core::solverCacheStats();
    std::printf("\nper-stage profile (summed across workers):\n");
    std::printf("  %-36s %10.1f ms  (%zu cold, %zu cached)\n",
                "cost derivation", stats.costDeriveMs,
                stats.costCacheMisses, stats.costCacheHits);
    std::printf("  %-36s %10.1f ms\n", "graph build + in-build sims",
                stats.graphBuildMs);
    const auto count = [](const char *name) {
        return static_cast<unsigned long long>(
            stats::counter(name).value());
    };
    const auto solver_line = [](const char *label, double ms,
                                uint64_t cold, uint64_t cached) {
        std::printf("  %-36s %10.1f ms  (%llu cold, %llu cached; "
                    "process-wide)\n",
                    label, ms, static_cast<unsigned long long>(cold),
                    static_cast<unsigned long long>(cached));
    };
    solver_line("  of which Algorithm-1 solves", solver.pipelineSolveMs,
                solver.pipelineMisses, solver.pipelineHits);
    solver_line("  of which gradient partition solves",
                solver.partitionSolveMs, solver.partitionMisses,
                solver.partitionHits);
    // Tutel/Lina degree searches (core::detail::searchDegree): of the
    // candidate degrees, how many the release-date bound skipped
    // unbuilt, how many were simulated, and how many of those hit the
    // cutoff; and how many emitter walks bounded them (one per search).
    std::printf("  %-36s %10llu     (%llu bounded, %llu simulated, "
                "%llu cut, %llu bound walks; process-wide)\n",
                "  degree-search candidates",
                count("schedule.search.candidates"),
                count("schedule.search.bounded"),
                count("schedule.search.simulated"),
                count("schedule.search.cut"),
                count("schedule.search.boundWalks"));
    // A degree search simulates its winner inside the build and hands
    // the result back, so those scenarios add to the graph-build line.
    std::printf("  %-36s %10.1f ms  (%llu searched winners handed back, "
                "in graph build; process-wide)\n",
                "simulate (final graphs)", stats.simulateMs,
                count("sweep.simulate.handedBack"));
    std::printf("  %-36s %10.1f ms\n", "sweep wall time",
                stats.lastSweepWallMs);

    // Registry-backed view: ratios and per-scenario latency come from
    // the process-wide stats registry, so repeated sweeps in one
    // process accumulate (unlike the per-engine stats above).
    const auto pct = [](uint64_t hits, uint64_t misses) {
        const uint64_t total = hits + misses;
        return total > 0 ? 100.0 * static_cast<double>(hits) /
                               static_cast<double>(total)
                         : 0.0;
    };
    const uint64_t cost_h = stats::counter("sweep.costCache.hits").value();
    const uint64_t cost_m = stats::counter("sweep.costCache.misses").value();
    const uint64_t sol_h = stats::counter("solver.pipeline.hits").value() +
                           stats::counter("solver.partition.hits").value();
    const uint64_t sol_m =
        stats::counter("solver.pipeline.misses").value() +
        stats::counter("solver.partition.misses").value();
    std::printf("cache hit ratios (process-wide):\n");
    std::printf("  %-28s %5.1f%%  (%llu of %llu)\n", "cost cache",
                pct(cost_h, cost_m),
                static_cast<unsigned long long>(cost_h),
                static_cast<unsigned long long>(cost_h + cost_m));
    std::printf("  %-28s %5.1f%%  (%llu of %llu)\n", "solver caches",
                pct(sol_h, sol_m), static_cast<unsigned long long>(sol_h),
                static_cast<unsigned long long>(sol_h + sol_m));
    const stats::Histogram &sim_ms = stats::histogram("sweep.simulate.ms");
    if (sim_ms.count() > 0)
        std::printf("per-scenario simulate: mean %.3f ms, max %.3f ms "
                    "(%llu cold simulations, handed-back results "
                    "not counted)\n",
                    sim_ms.mean(), sim_ms.maxValue(),
                    static_cast<unsigned long long>(sim_ms.count()));
}

/**
 * The robust.* counters a completed fault-tolerant run can show
 * (docs/OBSERVABILITY.md), printed by --profile. The scenario fault
 * sites count inside the workers, and torn / kill-after / stop-after
 * end the run before anything prints.
 */
void
printRobustCounters()
{
    static const char *const kNames[] = {
        "robust.journal.appends",
        "robust.journal.syncs",
        "robust.journal.recovered",
        "robust.journal.tornRecords",
    };
    bool any = false;
    for (const char *name : kNames)
        any = any || stats::counter(name).value() > 0;
    if (!any)
        return;
    std::printf("robustness counters (process-wide):\n");
    for (const char *name : kNames) {
        const uint64_t v = stats::counter(name).value();
        if (v > 0)
            std::printf("  %-34s %llu\n", name,
                        static_cast<unsigned long long>(v));
    }
}

/**
 * The record @p flag shows: for @p which "best", the least makespan
 * among Ok records (the first on ties), else the record labelled
 * @p which. Prints why to stderr and returns nullptr when there is no
 * such record (a --shard slice can be empty) or it was quarantined.
 */
const runtime::SweepResult *
pickRecord(const std::vector<runtime::SweepResult> &records,
           const char *flag, const char *which)
{
    if (records.empty()) {
        std::fprintf(stderr, "%s: this grid has no scenarios\n", flag);
        return nullptr;
    }
    const runtime::SweepResult *target = nullptr;
    if (std::strcmp(which, "best") == 0) {
        for (const auto &r : records)
            if (r.status == runtime::ResultStatus::Ok &&
                (target == nullptr || r.makespanMs < target->makespanMs))
                target = &r;
        if (target == nullptr)
            std::fprintf(stderr, "%s: no scenario of this grid finished\n",
                         flag);
        return target;
    }
    const auto it = std::find_if(
        records.begin(), records.end(),
        [which](const auto &r) { return r.scenario.label() == which; });
    if (it == records.end()) {
        std::fprintf(stderr,
                     "%s: no scenario labelled '%s' in this grid (labels "
                     "look like '%s'; or use 'best')\n",
                     flag, which, records.front().scenario.label().c_str());
        return nullptr;
    }
    if (it->status != runtime::ResultStatus::Ok) {
        std::fprintf(stderr, "%s: scenario '%s' was %s\n", flag, which,
                     runtime::resultStatusName(it->status));
        return nullptr;
    }
    return &*it;
}

/**
 * Build and simulate @p r's scenario again, keeping its graph in
 * @p graph: the sweep's own build-then-simulate sequence on the same
 * ModelCost, so the result is the one the sweep priced, bit for bit.
 */
sim::SimResult
resimulate(const runtime::SweepResult &r, sim::TaskGraph *graph)
{
    const core::ModelCost cost =
        runtime::ScenarioRegistry::instance().makeCost(r.scenario);
    return core::Schedule::create(r.scenario.schedule)->simulate(cost, graph);
}

/** Atomically write @p text to @p path; stderr + false on failure. */
bool
dumpTextFile(const char *path, const std::string &text)
{
    std::string error;
    if (!fileio::atomicWriteFile(path, text, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return false;
    }
    return true;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--threads N] [--batches LIST] [--trace FILE]\n"
                 "          [--schedules LIST] [--list-schedules]\n"
                 "          [--out-json FILE] [--out-csv FILE]\n"
                 "          [--diff BASELINE] [--tolerance PCT]\n"
                 "          [--shard K/N] [--profile]\n"
                 "          [--explain LABEL|best] [--link-util]\n"
                 "          [--metrics-json FILE] [--self-trace FILE]\n"
                 "          [--journal FILE] [--resume] [--isolate]\n"
                 "          [--timeout-ms N] [--max-attempts N]\n"
                 "          [--inject SPEC]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    int threads = 0;
    std::vector<int64_t> batches = {1, 2};
    std::vector<std::string> schedules; // empty = demo-grid default
    const char *trace_path = nullptr;
    const char *out_json = nullptr;
    const char *out_csv = nullptr;
    const char *diff_baseline = nullptr;
    double tolerance_pct = 0.0;
    runtime::ShardSpec shard;
    bool profile = false;
    bool link_util = false;
    const char *explain = nullptr;
    const char *metrics_json = nullptr;
    const char *self_trace = nullptr;
    const char *journal_path = nullptr;
    const char *inject_spec = nullptr;
    bool resume = false;
    bool isolate = false;
    int max_attempts = 3;
    int timeout_ms = 30000;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            threads = intFlag("--threads", argv[++i], 0);
        } else if (std::strcmp(argv[i], "--batches") == 0 && i + 1 < argc) {
            if (!service::parseBatchList(argv[++i], &batches)) {
                std::fprintf(stderr, "bad --batches list '%s'\n", argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--schedules") == 0 &&
                   i + 1 < argc) {
            schedules = parseSchedules(argv[++i]);
        } else if (std::strcmp(argv[i], "--list-schedules") == 0) {
            listSchedules();
            return 0;
        } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--out-json") == 0 && i + 1 < argc) {
            out_json = argv[++i];
        } else if (std::strcmp(argv[i], "--out-csv") == 0 && i + 1 < argc) {
            out_csv = argv[++i];
        } else if (std::strcmp(argv[i], "--diff") == 0 && i + 1 < argc) {
            diff_baseline = argv[++i];
        } else if (std::strcmp(argv[i], "--tolerance") == 0 &&
                   i + 1 < argc) {
            if (!parseNumber(argv[++i], &tolerance_pct) ||
                !std::isfinite(tolerance_pct) || tolerance_pct < 0.0) {
                std::fprintf(stderr, "bad --tolerance '%s'\n", argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--shard") == 0 && i + 1 < argc) {
            std::string shard_error;
            if (!runtime::parseShardSpec(argv[++i], &shard, &shard_error)) {
                std::fprintf(stderr, "%s\n", shard_error.c_str());
                return 2;
            }
        } else if (std::strcmp(argv[i], "--profile") == 0) {
            profile = true;
        } else if (std::strcmp(argv[i], "--explain") == 0 && i + 1 < argc) {
            explain = argv[++i];
        } else if (std::strcmp(argv[i], "--link-util") == 0) {
            link_util = true;
        } else if (std::strcmp(argv[i], "--metrics-json") == 0 &&
                   i + 1 < argc) {
            metrics_json = argv[++i];
        } else if (std::strcmp(argv[i], "--self-trace") == 0 &&
                   i + 1 < argc) {
            self_trace = argv[++i];
        } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
            journal_path = argv[++i];
        } else if (std::strcmp(argv[i], "--resume") == 0) {
            resume = true;
        } else if (std::strcmp(argv[i], "--isolate") == 0) {
            isolate = true;
        } else if (std::strcmp(argv[i], "--inject") == 0 && i + 1 < argc) {
            inject_spec = argv[++i];
        } else if (std::strcmp(argv[i], "--max-attempts") == 0 &&
                   i + 1 < argc) {
            max_attempts = intFlag("--max-attempts", argv[++i], 1);
        } else if (std::strcmp(argv[i], "--timeout-ms") == 0 &&
                   i + 1 < argc) {
            timeout_ms = intFlag("--timeout-ms", argv[++i], 1);
        } else {
            return usage(argv[0]);
        }
    }

    if (resume && journal_path == nullptr) {
        std::fprintf(stderr, "--resume needs --journal FILE\n");
        return 2;
    }
    if (inject_spec != nullptr) {
        runtime::fault::FaultConfig fault_cfg;
        std::string fault_error;
        if (!runtime::fault::parseSpec(inject_spec, &fault_cfg,
                                       &fault_error)) {
            std::fprintf(stderr, "bad --inject: %s\n", fault_error.c_str());
            return 2;
        }
        runtime::fault::configure(fault_cfg);
    }
    // Refuse unwritable output destinations up front: a sweep is
    // expensive, and discovering at the end that --out-json points
    // into a missing directory silently loses everything.
    for (const char *out_path :
         {out_json, out_csv, metrics_json, self_trace, trace_path,
          journal_path}) {
        std::string werr;
        if (out_path != nullptr &&
            !fileio::checkWritable(out_path, &werr)) {
            std::fprintf(stderr, "fsmoe_sweep: %s\n", werr.c_str());
            return 2;
        }
    }

    std::vector<runtime::Scenario> grid =
        runtime::demoGrid(batches, schedules);
    if (shard.count > 1) {
        const size_t full = grid.size();
        grid = runtime::shardScenarios(grid, shard);
        std::printf("shard %d/%d: %zu of %zu scenarios\n", shard.index,
                    shard.count, grid.size(), full);
    }

    if (threads <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        threads = hw > 0 ? static_cast<int>(hw) : 1;
    }

    // Any fault-tolerance flag (or FSMOE_FAULT in the environment)
    // routes through the sweep service's supervisor; everything else
    // takes the plain engine path below.
    const bool robust = journal_path != nullptr || resume || isolate ||
                        inject_spec != nullptr ||
                        runtime::fault::configureFromEnv();

    if (self_trace != nullptr)
        runtime::SelfTrace::instance().enable();

    std::vector<runtime::SweepResult> records;
    if (robust) {
        runtime::Journal journal;
        runtime::Journal *journal_ptr = nullptr;
        if (journal_path != nullptr) {
            std::string journal_error;
            if (!journal.open(journal_path, grid, resume, &journal_error)) {
                std::fprintf(stderr, "fsmoe_sweep: %s\n",
                             journal_error.c_str());
                return 2;
            }
            journal_ptr = &journal;
        }
        interrupt::installStopHandlers();
        service::ServerOptions sopts;
        sopts.numWorkers = threads;
        sopts.heartbeatTimeoutMs = timeout_ms;
        sopts.retry.maxAttempts = max_attempts;
        service::JobOutcome outcome;
        records =
            service::SweepServer(sopts).runGrid(grid, journal_ptr, &outcome);
        if (!outcome.ok && !outcome.interrupted) {
            std::fprintf(stderr, "fsmoe_sweep: %s\n", outcome.error.c_str());
            return 1;
        }

        if (interrupt::stopRequested()) {
            // Graceful stop: every finished scenario's journal record
            // is already flushed (the handler only sets a flag, so no
            // append was torn); unstarted scenarios came back as
            // default records. Writing a partial --out-json would
            // poison downstream cmp gates, so print the resume hint
            // and exit with the conventional 128+signal code instead.
            std::printf("\ninterrupted (signal %d) after %zu of %zu "
                        "scenarios\n",
                        interrupt::stopSignal(),
                        outcome.okResults + outcome.quarantined,
                        records.size());
            if (journal_path != nullptr)
                std::printf("finished records are safe in %s — resume "
                            "with: --journal %s --resume\n",
                            journal_path, journal_path);
            else
                std::printf("no journal was kept; rerun with --journal "
                            "FILE to make interrupted sweeps "
                            "resumable\n");
            return interrupt::stopExitCode();
        }
        printRanked(records);
        std::printf("\n%zu scenarios on %d worker processes: %zu ok, %zu "
                    "quarantined, %zu resumed from journal\n",
                    outcome.scenarios, threads, outcome.okResults,
                    outcome.quarantined, outcome.resumed);
        if (profile) {
            printRobustCounters();
            service::printServiceCounters();
        }
    } else {
        runtime::SweepEngine engine({threads});
        records = runtime::toSweepResults(engine.run(grid));

        printRanked(records);

        const runtime::SweepStats stats = engine.stats();
        std::printf("\n%zu scenarios on %d threads in %.1f ms; cost "
                    "cache: %zu misses, %zu hits\n",
                    stats.scenariosRun, threads, stats.lastSweepWallMs,
                    stats.costCacheMisses, stats.costCacheHits);
        if (profile)
            printProfile(stats);
    }

    if (explain != nullptr) {
        const runtime::SweepResult *target =
            pickRecord(records, "--explain", explain);
        if (target == nullptr)
            return 2;
        sim::TaskGraph graph;
        const sim::SimResult result = resimulate(*target, &graph);
        std::printf("\nexplain %s:\n%s", target->scenario.label().c_str(),
                    sim::formatRunReport(graph, sim::analyzeRun(graph, result))
                        .c_str());
    }
    if (trace_path != nullptr) {
        const runtime::SweepResult *best =
            pickRecord(records, "--trace", "best");
        if (best == nullptr)
            return 2;
        sim::TaskGraph graph;
        const sim::SimResult result = resimulate(*best, &graph);
        if (!runtime::writeChromeTrace(trace_path, graph, result,
                                       best->scenario.label()))
            return 1;
        std::printf("wrote chrome://tracing JSON for %s to %s\n",
                    best->scenario.label().c_str(), trace_path);
    }

    if (out_json != nullptr) {
        if (!runtime::writeResultsJson(out_json, records, link_util))
            return 2;
        std::printf("wrote %zu results to %s\n", records.size(), out_json);
    }
    if (out_csv != nullptr) {
        if (!runtime::writeResultsCsv(out_csv, records, link_util))
            return 2;
        std::printf("wrote %zu results to %s\n", records.size(), out_csv);
    }

    if (self_trace != nullptr) {
        runtime::SelfTrace &tracer = runtime::SelfTrace::instance();
        tracer.disable();
        if (!tracer.write(self_trace))
            return 1;
        std::printf("wrote %zu self-trace spans to %s\n",
                    tracer.eventCount(), self_trace);
    }
    if (metrics_json != nullptr) {
        if (!dumpTextFile(metrics_json,
                          stats::Registry::instance().snapshotJson()))
            return 1;
        std::printf("wrote stats snapshot to %s\n", metrics_json);
    }

    if (diff_baseline != nullptr) {
        std::vector<runtime::SweepResult> baseline;
        std::string error;
        if (!runtime::readResults(diff_baseline, &baseline, &error)) {
            std::fprintf(stderr, "cannot read baseline %s: %s\n",
                         diff_baseline, error.c_str());
            return 2;
        }
        const double tol = tolerance_pct / 100.0;
        const auto report = runtime::diffResults(baseline, records);
        std::printf("\ndiff vs %s:\n%s", diff_baseline,
                    runtime::formatDiff(report, tol).c_str());
        if (!report.passes(tol))
            return 1;
    }
    return 0;
}
