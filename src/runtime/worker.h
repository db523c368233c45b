/**
 * @file
 * Fault-tolerant in-process sweep execution: retries and quarantine.
 *
 * runRobust() is the resilient counterpart of SweepEngine::run(): it
 * evaluates a scenario grid to completion even when individual
 * scenarios fail. Failed scenarios are retried with a bounded
 * deterministic backoff (RetryPolicy); a scenario that fails
 * maxAttempts times is *quarantined* — recorded with
 * ResultStatus::Quarantined and the last error instead of aborting
 * the sweep. Healthy scenarios produce bytes identical to the plain
 * engine's (same pure evaluation path), which is what lets a
 * fault-injected sweep's surviving results merge byte-identical to a
 * clean run.
 *
 * Scenarios run on a ThreadPool like the plain engine, each wrapped in
 * the retry loop. A crashing scenario (real or injected) takes the
 * whole process down; with a journal that is exactly the mid-sweep-kill
 * case --resume recovers from. Crash and hang containment lives in the
 * one process supervisor, service::SweepServer (`fsmoe_sweep
 * --isolate` runs its grid there), which applies the same RetryPolicy
 * per shard.
 *
 * Determinism: evaluation is pure, retries change no result bytes
 * (only the non-serialised attempts count for Ok records), backoff
 * delays are a fixed function of the attempt number, and results are
 * returned in grid order. robust.* counters land in the stats
 * registry (docs/OBSERVABILITY.md).
 */
#ifndef FSMOE_RUNTIME_WORKER_H
#define FSMOE_RUNTIME_WORKER_H

#include <string>
#include <vector>

#include "runtime/journal.h"
#include "runtime/result_store.h"
#include "runtime/scenario.h"

namespace fsmoe::runtime {

/**
 * Retry-then-quarantine policy shared by runRobust() (per scenario)
 * and service::SweepServer (per shard).
 */
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

/** Policy knobs for runRobust(). */
struct RobustOptions
{
    /// Worker threads; 0 picks the hardware concurrency.
    int numThreads = 0;
    RetryPolicy retry;
    /// Testing hook for the graceful-stop path: after this many
    /// scenarios finish, act as if SIGTERM arrived (see
    /// base/interrupt.h). 0 disables. Unlike a real signal this is
    /// scheduler-independent, so CI can exercise Ctrl-C semantics
    /// deterministically.
    int stopAfterResults = 0;
};

/**
 * Evaluate @p s in this process — the same pure cost → schedule →
 * simulate path as SweepEngine, so the record's bytes match the
 * engine's exactly. Throws std::runtime_error on failure (including
 * the injected `eval` fault site, which keys on (scenario key,
 * @p attempt) so a retry can succeed).
 */
SweepResult evaluateScenario(const Scenario &s, int attempt);

/**
 * Identity-only record for a scenario that never produced a result —
 * what quarantine (here and in service/sweep_server) persists so the
 * sweep completes with the failure explicit instead of lost.
 */
SweepResult failureRecord(const Scenario &s, ResultStatus status,
                          int attempts, const std::string &error);

/**
 * Evaluate @p grid to completion under @p opts, honouring the eval
 * and crash fault-injection sites (runtime/fault.h). Results come back
 * in grid order, one per scenario: Ok records carry the simulation
 * outcome, Quarantined records carry the attempt count and last error.
 *
 * With @p journal (open, same grid) every finished scenario is
 * appended as it completes, and entries recovered by the journal are
 * honoured: Ok entries are not re-simulated; Failed/Quarantined
 * entries are re-attempted fresh.
 *
 * Graceful stop: when base/interrupt's stop flag is raised (SIGINT/
 * SIGTERM via installStopHandlers, or opts.stopAfterResults) no new
 * scenario is started; scenarios already finished keep their journal
 * records (the append in flight completes — the handler only sets a
 * flag), and unstarted ones come back as default records with an
 * empty schedule. Callers should treat the sweep as partial when
 * interrupt::stopRequested() and resume it from the journal.
 */
std::vector<SweepResult> runRobust(const std::vector<Scenario> &grid,
                                   const RobustOptions &opts,
                                   Journal *journal = nullptr);

} // namespace fsmoe::runtime

#endif // FSMOE_RUNTIME_WORKER_H
