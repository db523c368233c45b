/**
 * @file
 * Deterministic fault injection for the sweep runtime.
 *
 * Every recovery path in the fault-tolerance layer — scenario retry,
 * worker-crash supervision, watchdog timeouts, journal torn-tail
 * truncation, graceful stop — is dead code unless something exercises
 * it. This module injects those failures *deterministically*: the
 * decision to fail is a pure hash of (seed, site, scenario key,
 * attempt), so a given configuration fails the exact same scenarios on
 * every run and every machine. That keeps the repo's byte-identity
 * contract intact even for chaos tests: CI can inject crashes into a
 * sweep, resume it, and `cmp` the merged output against the clean run.
 *
 * Scenario sites fire inside the service workers (service/sweep_server.h):
 *   EvalError        scenario evaluation throws (a poisoned config, a
 *                    solver blow-up) — exercises retry + quarantine
 *   WorkerCrash      the worker dies (SIGKILL/OOM-style _exit(137)) —
 *                    exercises death detection, respawn, and retry of
 *                    the scenario in flight
 *   WorkerTimeout    the worker hangs until the supervisor's heartbeat
 *                    watchdog kills it — exercises the monotonic-clock
 *                    watchdog + retry
 *   TransportDrop    a heartbeat frame is silently not sent —
 *                    exercises the supervisor's tolerance for lost
 *                    frames (results still arrive; one missed beat
 *                    must not kill a healthy worker)
 *   TransportDisconnect the worker closes its socket mid-scenario and
 *                    exits — exercises EOF detection + retry
 *
 * Supervisor-side sites:
 *   TornJournalWrite a journal append writes only a prefix of the
 *                    record and the process exits — exactly the torn
 *                    tail recovery must truncate
 *   `kill-after=K`   the process exits after the K-th successful
 *                    journal append — a precise, scheduler-independent
 *                    way to kill a sweep (or the daemon) mid-run
 *   `stop-after=K`   a SIGTERM is simulated (base/interrupt) when the
 *                    supervisor receives the K-th result — the
 *                    deterministic way to exercise the graceful-stop
 *                    drain
 *
 * Configuration comes from `--inject SPEC` (fsmoe_sweep, fsmoe_sweepd)
 * or the FSMOE_FAULT environment variable (same spec syntax, read
 * lazily at first query):
 *
 *   seed=7,eval=0.3,crash=0.1,timeout=0.05,torn=0.2,kill-after=12
 *
 * where each site name maps to an injection probability in [0, 1].
 *
 * Cost when disabled: shouldInject() is one relaxed atomic load —
 * injection support is compiled into every build (Release included)
 * but free until configured.
 *
 * Thread-safety: configure()/reset() synchronise with concurrent
 * queries via the enabled flag's release/acquire ordering; queries are
 * lock-free. Counters land in the stats registry under
 * robust.fault.* (see docs/ROBUSTNESS.md).
 */
#ifndef FSMOE_RUNTIME_FAULT_H
#define FSMOE_RUNTIME_FAULT_H

#include <cstdint>
#include <string>

namespace fsmoe::runtime::fault {

/** Injection sites, in spec-keyword order. */
enum class Site
{
    EvalError = 0,
    WorkerCrash = 1,
    WorkerTimeout = 2,
    TornJournalWrite = 3,
    TransportDrop = 4,
    TransportDisconnect = 5,
    NumSites = 6,
};

/**
 * Spec keyword for @p site ("eval", "crash", "timeout", "torn",
 * "drop", "disconnect").
 */
const char *siteName(Site site);

/** One process's injection plan. */
struct FaultConfig
{
    uint64_t seed = 0;
    /// Injection probability per Site, indexed by Site value.
    double rate[static_cast<int>(Site::NumSites)] = {};
    /// Exit the process after this many successful journal appends;
    /// 0 disables.
    uint64_t killAfterAppends = 0;
    /// Request a graceful stop after this many finished results;
    /// 0 disables.
    uint64_t stopAfterResults = 0;

    /** True when any site can ever fire. */
    bool anyEnabled() const;
};

/**
 * Parse an injection spec ("seed=7,eval=0.3,torn=0.1,kill-after=4",
 * keys in any order, all optional). Returns false and sets *error on
 * unknown keys or out-of-range values; *out is untouched on failure.
 */
bool parseSpec(const std::string &spec, FaultConfig *out,
               std::string *error);

/** Install @p config process-wide (replaces any previous config). */
void configure(const FaultConfig &config);

/**
 * Configure from the FSMOE_FAULT environment variable if it is set
 * and configure() has not already been called. Returns true when a
 * config (env or earlier explicit) is active afterwards. A malformed
 * env spec is fatal — silently ignoring it would un-test the exact
 * paths the caller asked to test.
 */
bool configureFromEnv();

/** Disable all injection (tests; also forgets configureFromEnv). */
void reset();

/** The active config (zeroes when disabled). */
FaultConfig config();

/** True when a config with any nonzero site/kill rate is installed. */
bool enabled();

/**
 * The deterministic decision: should @p site fire for (@p key,
 * @p attempt)? Pure function of the active config's seed and the
 * arguments — identical across runs, hosts, and thread counts. Bumps
 * robust.fault.injected.<site> when it returns true. Always false
 * when disabled (one relaxed atomic load).
 */
bool shouldInject(Site site, const std::string &key, int attempt);

/**
 * Journal-append hook for kill-after: returns true when the process
 * should exit now (the caller performs the exit so it can flush
 * first). Counts appends internally; false when disabled.
 */
bool shouldKillAfterAppend();

/**
 * Received-result hook for stop-after: returns true exactly once, when
 * the K-th result arrives (the caller requests the stop). Counts
 * results internally; false when disabled.
 */
bool shouldStopAfterResult();

} // namespace fsmoe::runtime::fault

#endif // FSMOE_RUNTIME_FAULT_H
