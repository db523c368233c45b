/**
 * @file
 * bench_fsmoe — end-to-end and per-layer benchmark of the fsmoe library.
 *
 *   bench_fsmoe --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
 *               [--smoke] [--out FILE] [--trace-file FILE]
 *               [--work-dir DIR] [--baselines DIR]
 *
 * One workload per process (`all` runs each in a child process). A run
 * sets the workload up, repeats its rep for S seconds with tracing off,
 * and reports the end-to-end metrics from the fastest rep; set-up is
 * timed 9 times (the run's own and 8 fresh child processes spread over
 * the run) and the fastest reported. On a shared host whose speed
 * drifts by tens of percent over minutes, the fastest sample follows
 * the drift far less than the median does (README.md). With --trace 1
 * it then runs 3 traced reps, whose spans give the per-layer metrics
 * (each layer's fastest rep total, see trace.h). Every rep's outputs
 * are checked against the blessed baselines outside the timed region.
 * Each metric is printed as `workload metric value unit`; the last line
 * of stdout is one JSON object with the keys correct, attempted, failed
 * and metrics (end-to-end metrics with --trace 0, per-layer metrics
 * with --trace 1). --out writes the same values plus a host record.
 * Exits non-zero on any failed output.
 *
 * --smoke runs one set-up, one rep and one traced rep per workload:
 * only the checks and the trace reconciliation. Timed runs are refused
 * unless the library was compiled as Release with audits and
 * sanitizers off; smoke runs are allowed in any build.
 */
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/audit.h"
#include "base/fileio.h"
#include "base/json.h"
#include "base/sanitizers.h"
#include "trace.h"
#include "workloads.h"

extern char **environ;

namespace {

using namespace fsmoe;
using namespace fsmoe::bench;
using Clock = std::chrono::steady_clock;

#if !defined(NDEBUG) || FSMOE_AUDIT_ENABLED || FSMOE_SANITIZERS_ENABLED
constexpr bool kTimingBuild = false;
#else
constexpr bool kTimingBuild = true;
#endif

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 25.0;
    bool trace = false;
    bool smoke = false;
    std::string out;
    std::string traceFile;
    std::string setupOnly; ///< Set up, write the seconds taken here, exit.
    std::string workDir = ".bench_build/perfbench/work";
    std::string baselines = FSMOE_BENCH_BASELINES;
};

constexpr int kSetups = 9;
constexpr int kTracedReps = 3;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME|all [--seed N] [--seconds S] "
                 "[--trace 0|1] [--smoke] [--out FILE] [--trace-file FILE] "
                 "[--work-dir DIR] [--baselines DIR]\n"
                 "workloads:",
                 argv0);
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseArgs(int argc, char **argv, Options *o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--smoke") {
            o->smoke = true;
        } else if (!has_value) {
            return false;
        } else if (a == "--workload") {
            o->workload = argv[++i];
        } else if (a == "--seed") {
            o->seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds") {
            o->seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace") {
            o->trace = std::strcmp(argv[++i], "0") != 0;
        } else if (a == "--out") {
            o->out = argv[++i];
        } else if (a == "--setup-only") {
            o->setupOnly = argv[++i];
        } else if (a == "--trace-file") {
            o->traceFile = argv[++i];
        } else if (a == "--work-dir") {
            o->workDir = argv[++i];
        } else if (a == "--baselines") {
            o->baselines = argv[++i];
        } else {
            return false;
        }
    }
    return !o->workload.empty() && o->seconds > 0.0;
}

// ------------------------------------------------------------ host record

/**
 * A fixed CPU loop owned by the benchmark, fastest of 5. Taken before
 * and after each workload, it shows a slow host phase as such instead
 * of letting it pass for a slower commit.
 */
volatile uint64_t probe_sink = 0; ///< Keeps the probe loop alive.

double
hostProbeMs()
{
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 5; ++i) {
        const auto t0 = Clock::now();
        uint64_t x = 0x9e3779b97f4a7c15ULL;
        uint64_t acc = 0;
        for (int k = 0; k < 2000000; ++k) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += x % 1009;
        }
        probe_sink = acc;
        best = std::min(best, std::chrono::duration<double, std::milli>(
                                  Clock::now() - t0)
                                  .count());
    }
    return best;
}

std::string
cpuModel()
{
    std::string text;
    if (!fileio::readTextFile("/proc/cpuinfo", &text))
        return "unknown";
    const size_t at = text.find("model name");
    if (at == std::string::npos)
        return "unknown";
    const size_t colon = text.find(':', at);
    const size_t eol = text.find('\n', at);
    if (colon == std::string::npos || colon > eol)
        return "unknown";
    return text.substr(colon + 2, eol - colon - 2);
}

/**
 * Peak resident set of this process or any child it waited for, in MB.
 * Our own peak is VmHWM rather than RUSAGE_SELF: ru_maxrss survives
 * exec, so it would report the launching process's size whenever that
 * was larger (a Python driver is).
 */
double
peakRssMb()
{
    long self_kb = 0;
    std::string status;
    if (fileio::readTextFile("/proc/self/status", &status)) {
        const size_t at = status.find("VmHWM:");
        if (at != std::string::npos)
            self_kb = std::strtol(status.c_str() + at + 6, nullptr, 10);
    }
    struct rusage children = {};
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self_kb, children.ru_maxrss)) /
           1024.0;
}

// ------------------------------------------------------ per-layer metrics

enum class Stat
{
    Calls,
    Work,
    SelfMs,
    InclMs,
    UsPerCall,
    MsPerCall,
    NsPerWork,
};

/** A per-layer metric derived from the spans of one layer. */
struct SpanMetric
{
    const char *name;
    const char *span;
    Stat stat;
    const char *unit;
};

const SpanMetric kSpanMetrics[] = {
    {"scenario.cost.calls", "scenario.cost", Stat::Calls, "count"},
    {"scenario.cost.ms", "scenario.cost", Stat::SelfMs, "ms"},
    {"pipeline_solver.alg1.calls", "pipeline_solver.alg1", Stat::Calls,
     "count"},
    {"pipeline_solver.alg1.us_per_call", "pipeline_solver.alg1",
     Stat::UsPerCall, "us"},
    {"pipeline_solver.merged.calls", "pipeline_solver.merged", Stat::Calls,
     "count"},
    {"pipeline_solver.merged.us_per_call", "pipeline_solver.merged",
     Stat::UsPerCall, "us"},
    {"grad_partition.calls", "grad_partition", Stat::Calls, "count"},
    {"grad_partition.ms", "grad_partition", Stat::SelfMs, "ms"},
    {"grad_partition.ms_per_call", "grad_partition", Stat::MsPerCall, "ms"},
    {"grad_partition.de_generations", "grad_partition", Stat::Work,
     "count"},
    {"schedules.graphs", "schedules.build", Stat::Calls, "count"},
    {"schedules.tasks", "schedules.build", Stat::Work, "count"},
    {"schedules.build_ms", "schedules.build", Stat::SelfMs, "ms"},
    {"schedules.build_ns_per_task", "schedules.build", Stat::NsPerWork, "ns"},
    {"schedules.search_candidates", "schedules.search", Stat::Work, "count"},
    {"schedules.search_ms", "schedules.search", Stat::InclMs, "ms"},
    {"simulator.runs", "simulator.run", Stat::Calls, "count"},
    {"simulator.tasks", "simulator.run", Stat::Work, "count"},
    {"simulator.ms", "simulator.run", Stat::SelfMs, "ms"},
    {"simulator.ns_per_task", "simulator.run", Stat::NsPerWork, "ns"},
    {"result_store.serialize_ms", "result_store.serialize", Stat::SelfMs,
     "ms"},
    {"result_store.parse_ms", "result_store.parse", Stat::SelfMs, "ms"},
    {"result_store.bytes", "result_store.serialize", Stat::Work, "bytes"},
    {"result_store.write_ms", "result_store.write", Stat::SelfMs, "ms"},
    {"journal.appends", "journal.append", Stat::Calls, "count"},
    {"protocol.us_per_frame", "protocol.frame", Stat::UsPerCall, "us"},
};

/**
 * Metrics a workload computes itself, with their units; every name must
 * match BENCHMARK.json. Workloads that do not exercise a layer report 0.
 */
const std::pair<const char *, const char *> kWorkloadMetrics[] = {
    {"solver_cache.hit_ratio", "ratio"},
    {"sweep_engine.reps", "count"},
    {"sweep_engine.rep_ms_p50", "ms"},
    {"sweep_engine.rep_ms_p90", "ms"},
    {"sweep_engine.cost_cache.hit_ratio", "ratio"},
    {"sweep_engine.sim_cache.hit_ratio", "ratio"},
    {"sweep_engine.overhead_ms", "ms"},
    {"tuner.reps", "count"},
    {"tuner.rep_ms_p50", "ms"},
    {"tuner.specs_evaluated", "count"},
    {"tuner.sims_per_query", "count"},
    {"tuner.tasks_per_query", "count"},
    {"tuner.engine_build_ms", "ms"},
    {"tuner.engine_simulate_ms", "ms"},
    {"tuner.other_ms", "ms"},
    {"journal.append_ms_p50", "ms"},
    {"journal.append_ms_p90", "ms"},
    {"sweep_server.reps", "count"},
    {"sweep_server.rep_ms_p50", "ms"},
    {"sweep_server.rep_ms_p90", "ms"},
    {"sweep_server.parallel_eff", "ratio"},
};

double
spanStat(const std::vector<RepSummary> &reps, const SpanMetric &m)
{
    // Counts repeat exactly across reps; times take each layer's fastest
    // rep total.
    double best = std::numeric_limits<double>::infinity();
    LayerTotals counts;
    for (const RepSummary &r : reps) {
        const auto it = r.layers.find(m.span);
        if (it == r.layers.end())
            return 0.0;
        const LayerTotals &t = it->second;
        counts = t;
        const double ms = m.stat == Stat::InclMs ? t.inclMs : t.selfMs;
        best = std::min(best, ms);
    }
    if (reps.empty())
        return 0.0;
    const double calls = static_cast<double>(counts.calls);
    const double work = static_cast<double>(counts.work);
    switch (m.stat) {
    case Stat::Calls:
        return calls;
    case Stat::Work:
        return work;
    case Stat::SelfMs:
    case Stat::InclMs:
        return best;
    case Stat::UsPerCall:
        return calls > 0 ? best * 1e3 / calls : 0.0;
    case Stat::MsPerCall:
        return calls > 0 ? best / calls : 0.0;
    case Stat::NsPerWork:
        return work > 0 ? best * 1e6 / work : 0.0;
    }
    return 0.0;
}

/** Every per-layer metric, in BENCHMARK.json order. */
std::vector<Metric>
layerMetrics(Workload &w, const Samples &untraced, const Tracer &tracer,
             double probe_ms)
{
    const std::vector<RepSummary> reps = tracer.summarize();
    // Tracing overhead: the fastest traced "rep" span against the fastest
    // untraced rep. Reconciliation: the share of the fastest traced rep's
    // wall time that the layer spans' self times leave uncovered.
    double rep_ms = std::numeric_limits<double>::infinity();
    for (const Span &s : tracer.spans())
        if (s.name == "rep")
            rep_ms = std::min(rep_ms, s.durMs());
    const RepSummary fastest = tracer.fastestRep();
    std::vector<Metric> out = {
        {"host.probe_ms", probe_ms, "ms"},
        {"trace.unaccounted_frac", 1.0 - fastest.stageMs / fastest.wallMs,
         "ratio"},
        {"trace.overhead_frac", rep_ms / w.fastestRepMs(untraced) - 1.0,
         "ratio"},
    };
    for (const SpanMetric &m : kSpanMetrics)
        out.push_back({m.name, spanStat(reps, m), m.unit});
    for (const auto &[name, unit] : kWorkloadMetrics)
        out.push_back({name, 0.0, unit});
    for (const Metric &m : w.layerMetrics(untraced, tracer)) {
        auto it = std::find_if(out.begin(), out.end(), [&](const Metric &o) {
            return o.name == m.name;
        });
        if (it == out.end())
            throw std::logic_error("unlisted per-layer metric " + m.name);
        it->value = m.value;
    }
    return out;
}

// ---------------------------------------------------------------- output

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i == 0 ? "\"" : ", \"") + json::escape(m.name) +
               "\": {\"value\": " + json::fmtDouble(m.value) +
               ", \"unit\": \"" + json::escape(m.unit) + "\"}";
    }
    return out + "}";
}

std::string
resultJson(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric> &metrics)
{
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) +
           ", \"metrics\": " + metricsJson(metrics) + "}";
}

std::string
resultFile(const Options &o, const std::string &result, double probe_before,
           double probe_after, const std::vector<Metric> &all)
{
    long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    std::string out = "{\"schema\": \"fsmoe-bench\", \"version\": 1,\n";
    out += "\"workload\": \"" + json::escape(o.workload) + "\", ";
    out += "\"seed\": " + std::to_string(o.seed) + ", ";
    out += "\"seconds\": " + json::fmtDouble(o.seconds) + ", ";
    out += std::string("\"trace\": ") + (o.trace ? "1" : "0") + ",\n";
    out += "\"host\": {\"nproc\": " + std::to_string(nproc) +
           ", \"cpu\": \"" + json::escape(cpuModel()) +
           "\", \"compiler\": \"" FSMOE_BENCH_COMPILER
           "\", \"build_type\": \"" FSMOE_BENCH_BUILD_TYPE
           "\", \"git_rev\": \"" FSMOE_BENCH_GIT_REV "\", ";
    out += "\"probe_ms_before\": " + json::fmtDouble(probe_before) +
           ", \"probe_ms_after\": " + json::fmtDouble(probe_after) + "},\n";
    out += "\"result\": " + result + ",\n";
    out += "\"all_metrics\": " + metricsJson(all) + "}\n";
    return out;
}

// ------------------------------------------------------- child processes

/** Run this binary with @p args and wait; returns its exit status. */
int
spawnSelf(std::vector<std::string> args)
{
    args.insert(args.begin(), "bench_fsmoe");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0)
        throw std::runtime_error("cannot spawn bench_fsmoe");
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

/**
 * Set-up time of a fresh process: main() to the end of the workload's
 * set-up, so first-use initialisation (registries, lazy tables) counts
 * every time.
 */
double
childSetupSeconds(const Options &o, int index)
{
    const std::string file = o.workDir + "/setup-" + o.workload + "-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(index);
    const int rc = spawnSelf({"--workload", o.workload, "--seed",
                              std::to_string(o.seed), "--work-dir", o.workDir,
                              "--baselines", o.baselines, "--setup-only",
                              file});
    std::string text;
    const bool ok = rc == 0 && fileio::readTextFile(file, &text);
    std::remove(file.c_str());
    if (!ok)
        throw std::runtime_error("set-up in a child process failed");
    return std::strtod(text.c_str(), nullptr);
}

/** Removes a run's scratch directory on every way out. */
struct ScratchDir
{
    explicit ScratchDir(std::string p) : path(std::move(p))
    {
        std::filesystem::create_directories(path);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string path;
};

// ------------------------------------------------------------ one workload

int
runWorkload(const Options &o, Clock::time_point main_start)
{
    const std::vector<std::string> &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end())
        throw std::runtime_error("unknown workload " + o.workload);
    // A directory of its own, so concurrent runs cannot share a journal.
    const ScratchDir scratch(o.workDir + "/" + o.workload + "-" +
                             std::to_string(::getpid()));
    RunConfig config;
    config.seed = o.seed;
    config.smoke = o.smoke;
    config.workDir = scratch.path;
    config.baselines = o.baselines;
    std::unique_ptr<Workload> w = makeWorkload(o.workload, config);

    w->setup();
    Samples setups;
    setups.add(std::chrono::duration<double>(Clock::now() - main_start)
                   .count());
    if (!o.setupOnly.empty()) {
        std::string error;
        if (!fileio::atomicWriteFile(o.setupOnly,
                                     json::fmtDouble(setups.pct(1.0)),
                                     &error))
            throw std::runtime_error(error);
        return 0;
    }
    const double probe_before = hostProbeMs();

    // The other set-ups run in child processes spread evenly over the
    // timed loop, between reps, so the fastest of them samples the whole
    // run rather than one moment of a host whose speed drifts.
    const int setups_wanted = o.smoke ? 1 : kSetups;
    Samples reps;
    const auto start = Clock::now();
    for (;;) {
        reps.add(w->rep());
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (o.smoke || elapsed >= o.seconds)
            break;
        if (static_cast<int>(setups.size()) < setups_wanted &&
            elapsed >= o.seconds * setups.size() / setups_wanted)
            setups.add(childSetupSeconds(o, setups.size()));
    }
    while (static_cast<int>(setups.size()) < setups_wanted)
        setups.add(childSetupSeconds(o, setups.size()));

    Tracer tracer;
    if (o.trace || o.smoke) {
        for (int i = 0; i < (o.smoke ? 1 : kTracedReps); ++i) {
            tracer.setRep(i);
            w->tracedRep(tracer);
        }
    }
    const double probe_after = hostProbeMs();

    const double best = w->fastestRepMs(reps);
    const std::vector<Metric> e2e = {
        {"scen_per_s", w->scenariosPerRep() / (best / 1e3), "scenarios/s"},
        {"query_ms", best / w->queriesPerRep(), "ms"},
        {"setup_s", setups.pct(0.0), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    std::vector<Metric> layers;
    if (o.trace || o.smoke)
        layers = layerMetrics(*w, reps, tracer,
                              std::min(probe_before, probe_after));

    std::vector<Metric> all = e2e;
    all.insert(all.end(), layers.begin(), layers.end());
    for (const Metric &m : all)
        std::printf("%s %s %s %s\n", o.workload.c_str(), m.name.c_str(),
                    json::fmtDouble(m.value).c_str(), m.unit.c_str());
    const bool correct = w->failed == 0;
    const std::string result =
        resultJson(correct, w->attempted, w->failed, o.trace ? layers : e2e);
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);

    std::string error;
    if (!o.traceFile.empty() && o.trace &&
        !tracer.writeChromeTrace(o.traceFile, "bench_fsmoe " + o.workload,
                                 &error))
        throw std::runtime_error(error);
    if (!o.out.empty() &&
        !fileio::atomicWriteFile(
            o.out, resultFile(o, result, probe_before, probe_after, all),
            &error))
        throw std::runtime_error(error);
    if (!correct)
        std::fprintf(stderr, "bench_fsmoe: %s: %llu of %llu outputs wrong\n",
                     o.workload.c_str(),
                     static_cast<unsigned long long>(w->failed),
                     static_cast<unsigned long long>(w->attempted));
    return correct ? 0 : 1;
}

// ------------------------------------------------- all workloads, forked

/** `--out a.json` -> `a.<workload>.json` for the children of `all`. */
std::string
childOut(const std::string &out, const std::string &workload)
{
    const size_t dot = out.rfind(".json");
    return out.substr(0, dot) + "." + workload + ".json";
}

int
runAll(const Options &o)
{
    int status_all = 0;
    for (const std::string &w : workloadNames()) {
        std::vector<std::string> args = {
            "--workload", w, "--seed", std::to_string(o.seed), "--seconds",
            json::fmtDouble(o.seconds), "--trace", o.trace ? "1" : "0",
            "--work-dir", o.workDir, "--baselines", o.baselines};
        if (o.smoke)
            args.push_back("--smoke");
        if (!o.out.empty()) {
            args.push_back("--out");
            args.push_back(childOut(o.out, w));
        }
        if (!o.traceFile.empty()) {
            args.push_back("--trace-file");
            args.push_back(childOut(o.traceFile, w));
        }
        if (spawnSelf(args) != 0) {
            std::fprintf(stderr, "bench_fsmoe: workload %s failed\n",
                         w.c_str());
            status_all = 1;
        }
    }
    return status_all;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto main_start = Clock::now();
    Options o;
    if (!parseArgs(argc, argv, &o))
        return usage(argv[0]);
    if (!o.smoke && !kTimingBuild) {
        std::fprintf(stderr,
                     "bench_fsmoe: refusing a timed run: the library was "
                     "not compiled as Release with audits and sanitizers "
                     "off (use --smoke for the checks alone)\n");
        return 2;
    }
    try {
        return o.workload == "all" ? runAll(o) : runWorkload(o, main_start);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_fsmoe: %s: %s\n", o.workload.c_str(),
                     e.what());
        return 1;
    }
}
