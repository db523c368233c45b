/**
 * @file
 * Cooperative stop flag for graceful SIGINT/SIGTERM handling.
 *
 * A long-running sweep or the sweep daemon must not die mid-journal-
 * append when the user presses Ctrl-C: the record in flight should be
 * flushed, the resume hint printed, and the process should exit with a
 * conventional 128+signal code. POSIX signal handlers can do almost
 * nothing safely, so the handler here only stores the signal number
 * into an atomic; every long-running loop (SweepServer's poll loop,
 * fsmoe_sweepd's queue loop) polls stopRequested() at its natural
 * checkpoint boundaries and winds down cleanly — finished work is
 * already durable, unfinished work is simply never started.
 *
 * requestStop() lets tests and the deterministic `stop-after=K` fault
 * key (runtime/fault.h) trigger the exact same drain path without
 * racing a real signal against the scheduler.
 *
 * Thread-safety: all functions are async-signal-safe atomics; any
 * thread (or a signal handler) may call any of them concurrently.
 */
#ifndef FSMOE_BASE_INTERRUPT_H
#define FSMOE_BASE_INTERRUPT_H

namespace fsmoe::interrupt {

/**
 * Install SIGINT + SIGTERM handlers that record the signal for
 * stopRequested(). Idempotent. The second delivery of a handled
 * signal restores the default disposition first, so a double Ctrl-C
 * still kills a wedged process.
 */
void installStopHandlers();

/** True once a stop signal arrived or requestStop() was called. */
bool stopRequested();

/** The signal that requested the stop (0 when none). */
int stopSignal();

/** Conventional exit code for the stop (128 + signal; 0 when none). */
int stopExitCode();

/** Programmatic stop — same effect as receiving @p signal. */
void requestStop(int signal);

/** Forget any recorded stop (tests; also re-arms the handlers). */
void clearStop();

} // namespace fsmoe::interrupt

#endif // FSMOE_BASE_INTERRUPT_H
