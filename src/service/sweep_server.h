/**
 * @file
 * SweepServer — the one fault-tolerant sweep runner.
 *
 * The server fans a scenario grid out to a pool of forked worker
 * processes over AF_UNIX socketpairs (service/protocol.h) and heals
 * every failure mode a worker can exhibit. It serves two callers: the
 * fsmoe_sweepd daemon (runJob/serve: a submitted JobSpec in, a merged
 * result file out) and every journaled, isolated or fault-injected
 * `fsmoe_sweep` run (runGrid on the CLI's own grid). Workers are
 * forked, never exec'd, so each one inherits the grid and options and
 * nothing but scenario assignments and results crosses the wire. One
 * scenario is the unit of both assignment and retry: an Assign names
 * one grid index and that scenario's own attempt number. A worker
 * holds at most two: the one it is running and the next, queued in
 * its socket so it keeps working while the supervisor fsyncs the
 * journal. Each worker evaluates through one runtime::SweepEngine, the
 * same path as a plain sweep, so healthy records carry the plain
 * engine's bytes.
 *
 *   worker dies (SIGKILL, crash, injected crash)
 *     -> death is observed via socket EOF or waitpid; either way the
 *        socket is drained to EOF, the scenario it was running (if its
 *        result did not arrive) is charged one attempt, the one queued
 *        behind it goes back uncharged, and a fresh worker is forked
 *        into the slot
 *   worker stalls (hang, injected timeout)
 *     -> a per-worker heartbeat watchdog on std::chrono::steady_clock
 *        (wall-clock time is banned in deadline arithmetic — see
 *        fsmoe_lint's wallclock-deadline rule) SIGKILLs the worker
 *        past heartbeatTimeoutMs and charges its scenario
 *   worker disconnects or corrupts a frame (injected disconnect)
 *     -> same path as death
 *   scenario evaluation fails (throw, injected eval fault)
 *     -> the worker reports EvalError and stays up; the scenario is
 *        charged one attempt
 *   the daemon itself dies (SIGKILL, injected kill-after)
 *     -> every result counted as finished was already journalled
 *        (one fsync per poll round; the round's uncommitted results
 *        are re-run on resume); workers die with it via
 *        PR_SET_PDEATHSIG; a restarted daemon resumes the job from the
 *        journal
 *
 * Retries follow RetryPolicy: a charged scenario rejoins the back of
 * the pending queue after a deterministic exponential backoff, and a
 * scenario whose own attempts reach maxAttempts is quarantined
 * (ResultStatus::Quarantined) with its last failure as the error: the
 * eval message, or the loss class ("worker lost before reporting a
 * result" / "worker missed its heartbeat deadline"). Once a stop is
 * requested nothing is assigned or charged, so a graceful drain never
 * quarantines a scenario it only interrupted.
 *
 * Determinism contract (docs/SERVICE.md): scenario evaluation is pure
 * and results are keyed by grid index, so the merged output is
 * byte-identical to a single-process `fsmoe_sweep` over the same grid
 * — regardless of worker count or how many times the job was resumed.
 * Every injected fault keys on (seed, site, label, that scenario's
 * attempt), so an injected run's output is a pure function of the grid
 * and the fault spec, at any worker count.
 *
 * Thread-safety: the supervisor is strictly single-threaded (fork
 * from a threaded process is a deadlock lottery); all concurrency is
 * between processes. Progress counters land in the stats registry
 * under service.* (docs/OBSERVABILITY.md).
 */
#ifndef FSMOE_SERVICE_SWEEP_SERVER_H
#define FSMOE_SERVICE_SWEEP_SERVER_H

#include <cstddef>
#include <string>
#include <vector>

#include "runtime/journal.h"
#include "runtime/result_store.h"
#include "runtime/scenario.h"
#include "service/job.h"
#include "service/job_queue.h"

namespace fsmoe::service {

/** Retry-then-quarantine policy for a scenario's assignment attempts. */
struct RetryPolicy
{
    /// Give up (quarantine) after this many failed attempts.
    int maxAttempts = 3;
    /// Deterministic exponential backoff between attempts:
    /// min(backoffBaseMs << (attempt-1), backoffMaxMs).
    int backoffBaseMs = 10;
    int backoffMaxMs = 1000;

    /** The delay before retrying after @p attempt (1-based) failures. */
    int backoffMs(int attempt) const;
};

/** Supervisor policy knobs. */
struct ServerOptions
{
    /// Worker processes to keep alive while a job runs.
    int numWorkers = 3;
    /// Interval at which an idle worker volunteers a heartbeat; busy
    /// workers beat once per scenario.
    int heartbeatMs = 50;
    /// Watchdog: a busy worker silent for this long (steady clock) is
    /// SIGKILLed and its scenario charged one attempt.
    int heartbeatTimeoutMs = 2000;
    /// Assignment attempts before a scenario is quarantined, and the
    /// backoff before each retry.
    RetryPolicy retry;
};

/** What one runGrid() or runJob() call accomplished. */
struct JobOutcome
{
    /// Every scenario finished (Ok or quarantined); for runJob, the
    /// merged output is written too.
    bool ok = false;
    bool interrupted = false; ///< Graceful stop drained the job early.
    std::string error;        ///< Failure description when !ok.
    size_t scenarios = 0;     ///< Grid size.
    size_t okResults = 0;     ///< Finished scenarios with status Ok.
    size_t quarantined = 0;   ///< Finished scenarios given up on.
    size_t resumed = 0;       ///< Scenarios recovered from the journal.
};

class SweepServer
{
  public:
    explicit SweepServer(const ServerOptions &opts) : opts_(opts) {}

    /**
     * Supervise @p grid to completion: skip scenarios @p journal (open
     * over the same grid, or null) recovered as Ok, fan the rest out to
     * workers, heal failures, and append every finished record to the
     * journal. Returns one record per scenario in grid order and fills
     * @p outcome. On graceful stop (base/interrupt, or the stop-after
     * fault key counting received results) the grid is drained —
     * workers finish the at most two scenarios they hold, streamed
     * results are journalled, unstarted scenarios come back
     * as default records, which outcome's okResults and quarantined
     * leave out — and outcome.interrupted is set. The calling process
     * must be single-threaded.
     */
    std::vector<runtime::SweepResult>
    runGrid(const std::vector<runtime::Scenario> &grid,
            runtime::Journal *journal, JobOutcome *outcome);

    /**
     * Run @p job to completion: buildJobGrid, open @p journalPath
     * (recovering it when @p resume), runGrid, and atomically write the
     * merged result to job.outPath.
     * On graceful stop (base/interrupt) the job is drained — streamed
     * results are journalled, no merged output is written — and
     * outcome.interrupted is set so the caller can leave the job
     * resumable. Returns outcome.ok.
     */
    bool runJob(const JobSpec &job, const std::string &journalPath,
                bool resume, JobOutcome *outcome);

    /**
     * Daemon loop: repeatedly scan @p queue, run "queued" jobs in
     * submission order (and first re-run "active" jobs — a previous
     * daemon died holding them — resuming from their journals), and
     * record "done"/"failed <error>" states. With @p once the loop
     * ends after one pass over a non-growing queue instead of
     * polling. Returns the process exit code: 0, or 128+signal after
     * a graceful stop (interrupted jobs stay "active" for the next
     * daemon).
     */
    int serve(JobQueue &queue, bool once);

  private:
    ServerOptions opts_;
};

/**
 * Decode a worker's Result frame body, "<gridIndex> <one-line JSON
 * record>": the index must be a plain decimal inside @p grid and the
 * record must describe exactly grid[index]. Returns false and sets
 * *error otherwise — a frame that names the wrong scenario is as
 * corrupt as one that does not parse.
 */
bool decodeResultFrame(const std::string &body,
                       const std::vector<runtime::Scenario> &grid,
                       size_t *idx, runtime::SweepResult *out,
                       std::string *error);

/**
 * Print the nonzero service.* counters (docs/OBSERVABILITY.md) — the
 * --profile block of fsmoe_sweepd and of a fault-tolerant fsmoe_sweep.
 */
void printServiceCounters();

} // namespace fsmoe::service

#endif // FSMOE_SERVICE_SWEEP_SERVER_H
