/**
 * @file
 * fsmoe_sweepd — the resilient sweep service daemon.
 *
 * Watches a filesystem job queue (service/job_queue.h) for sweep jobs
 * submitted by fsmoe_submit, runs each over a pool of heartbeat-
 * supervised worker processes (service/sweep_server.h), and writes
 * every job's merged result file. The daemon heals worker deaths,
 * stalls, and disconnects by reassigning shards, and survives its own
 * death: every streamed result is journalled (fsync'd) before it is
 * acknowledged, so a restarted daemon resumes in-flight jobs and the
 * final output is byte-identical to an uninterrupted run (see
 * docs/SERVICE.md for the full protocol and determinism contract).
 *
 * Options:
 *
 *   --queue DIR            job queue directory (required; created if
 *                          missing — same DIR as fsmoe_submit)
 *   --once                 drain the queue, then exit instead of
 *                          polling for new jobs (CI mode)
 *   --workers N            worker processes per job (default 3)
 *   --shards-per-worker N  shard granularity (default 4): pending
 *                          scenarios split into N*workers slices
 *   --heartbeat-ms N       idle-worker heartbeat interval (default 50)
 *   --heartbeat-timeout-ms N
 *                          watchdog: a busy worker silent this long is
 *                          killed and its shard reassigned (default
 *                          2000; measured on the monotonic clock)
 *   --max-shard-attempts N assignment attempts before a shard's
 *                          remainder is quarantined (default 3)
 *   --inject SPEC          deterministic fault injection
 *                          (runtime/fault.h), e.g.
 *                          "seed=7,crash=0.2,kill-after=30";
 *                          kill-after kills the *daemon* after that
 *                          many journal appends
 *   --profile              print the service.* counter inventory on
 *                          exit (docs/OBSERVABILITY.md)
 *
 * Signals: SIGINT/SIGTERM drain gracefully — workers finish their
 * current scenario, streamed results are journalled, the in-flight
 * job stays "active" for the next daemon, and the exit code is
 * 128+signal. A second signal kills immediately (the journal still
 * protects every acknowledged result).
 */
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "base/interrupt.h"
#include "runtime/fault.h"
#include "service/job_queue.h"
#include "service/sweep_server.h"

namespace {

using namespace fsmoe;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --queue DIR [--once] [--workers N]\n"
                 "          [--shards-per-worker N] [--heartbeat-ms N]\n"
                 "          [--heartbeat-timeout-ms N]\n"
                 "          [--max-shard-attempts N] [--inject SPEC]\n"
                 "          [--profile]\n",
                 argv0);
    return 2;
}

int
positiveIntArg(const char *flag, const char *value)
{
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || errno != 0 || v < 1 ||
        v > INT_MAX) {
        std::fprintf(stderr, "bad %s '%s'\n", flag, value);
        std::exit(2);
    }
    return static_cast<int>(v);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *queue_dir = nullptr;
    const char *inject_spec = nullptr;
    bool once = false;
    bool profile = false;
    service::ServerOptions opts;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--queue") == 0 && i + 1 < argc) {
            queue_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--once") == 0) {
            once = true;
        } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
            opts.numWorkers = positiveIntArg("--workers", argv[++i]);
        } else if (std::strcmp(argv[i], "--shards-per-worker") == 0 &&
                   i + 1 < argc) {
            opts.shardsPerWorker =
                positiveIntArg("--shards-per-worker", argv[++i]);
        } else if (std::strcmp(argv[i], "--heartbeat-ms") == 0 &&
                   i + 1 < argc) {
            opts.heartbeatMs = positiveIntArg("--heartbeat-ms", argv[++i]);
        } else if (std::strcmp(argv[i], "--heartbeat-timeout-ms") == 0 &&
                   i + 1 < argc) {
            opts.heartbeatTimeoutMs =
                positiveIntArg("--heartbeat-timeout-ms", argv[++i]);
        } else if (std::strcmp(argv[i], "--max-shard-attempts") == 0 &&
                   i + 1 < argc) {
            opts.retry.maxAttempts =
                positiveIntArg("--max-shard-attempts", argv[++i]);
        } else if (std::strcmp(argv[i], "--inject") == 0 && i + 1 < argc) {
            inject_spec = argv[++i];
        } else if (std::strcmp(argv[i], "--profile") == 0) {
            profile = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (queue_dir == nullptr) {
        std::fprintf(stderr, "%s: --queue DIR is required\n", argv[0]);
        return usage(argv[0]);
    }
    if (inject_spec != nullptr) {
        runtime::fault::FaultConfig cfg;
        std::string error;
        if (!runtime::fault::parseSpec(inject_spec, &cfg, &error)) {
            std::fprintf(stderr, "bad --inject: %s\n", error.c_str());
            return 2;
        }
        runtime::fault::configure(cfg);
    }

    service::JobQueue queue;
    std::string error;
    if (!queue.open(queue_dir, &error)) {
        std::fprintf(stderr, "fsmoe_sweepd: %s\n", error.c_str());
        return 2;
    }

    interrupt::installStopHandlers();
    std::printf("fsmoe_sweepd: serving queue %s (%d workers%s)\n",
                queue_dir, opts.numWorkers, once ? ", once" : "");
    std::fflush(stdout);

    service::SweepServer server(opts);
    const int code = server.serve(queue, once);
    if (profile)
        service::printServiceCounters();
    return code;
}
