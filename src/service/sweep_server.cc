#include "service/sweep_server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/interrupt.h"
#include "base/logging.h"
#include "base/number.h"
#include "base/stats.h"
#include "runtime/fault.h"
#include "runtime/sweep_engine.h"
#include "service/protocol.h"

namespace fsmoe::service {

namespace {

namespace fault = runtime::fault;
using runtime::Scenario;
using runtime::SweepResult;
using Clock = std::chrono::steady_clock;

// The quarantine error of a scenario whose last attempt lost its worker:
// one text per loss class, whichever of socket EOF or waitpid noticed
// the death first.
constexpr const char *kWorkerLost = "worker lost before reporting a result";
constexpr const char *kMissedHeartbeat =
    "worker missed its heartbeat deadline";

/// Worker respawns tolerated per job before the job fails — a
/// backstop against a fault config that kills every fork.
constexpr int kMaxWorkerRestarts = 200;
/// Queue poll interval for serve() when the queue is empty.
constexpr int kQueuePollMs = 200;

/** Split "<gridIndex> <rest>"; the index must be decimal and in range. */
bool
splitIndexedBody(const std::string &body, size_t gridSize, size_t *idx,
                 std::string *rest)
{
    const size_t space = body.find(' ');
    if (space == std::string::npos)
        return false;
    size_t v = 0;
    if (!parseNumber(std::string_view(body).substr(0, space), &v) ||
        v >= gridSize)
        return false;
    *idx = v;
    *rest = body.substr(space + 1);
    return true;
}

// ===================================================== worker (child)

/** What a forked worker inherits from the supervisor. */
struct WorkerContext
{
    int fd;
    std::string name;
    int heartbeatMs;
    const std::vector<Scenario> &grid;
    runtime::SweepEngine &engine;
};

/** In a worker a failed send means the supervisor is gone: just die. */
void
sendOrDie(int fd, FrameType type, const std::string &body)
{
    if (!sendFrame(fd, Frame{type, body}))
        ::_exit(1);
}

/**
 * Evaluate the one scenario an Assign frame names, "<gridIndex>
 * <attempt>", and report a Result or an EvalError for it.
 */
void
runAssigned(const WorkerContext &ctx, const std::string &body)
{
    size_t idx = 0;
    std::string rest;
    int attempt = 0;
    if (!splitIndexedBody(body, ctx.grid.size(), &idx, &rest))
        ::_exit(1); // a corrupt Assign frame
    if (!parseNumber(rest, &attempt) || attempt < 1)
        ::_exit(1);
    const std::string label = ctx.grid[idx].label();

    // Injection sites, each proving one supervisor failover path
    // (runtime/fault.h). Keyed on (label, the scenario's own attempt),
    // so a retry makes a fresh — but still deterministic — decision.
    if (fault::shouldInject(fault::Site::WorkerCrash, label, attempt))
        ::_exit(137); // SIGKILL-style: no goodbye on the socket
    if (fault::shouldInject(fault::Site::TransportDisconnect, label,
                            attempt)) {
        ::close(ctx.fd); // EOF reaches the supervisor mid-scenario
        ::_exit(1);
    }
    if (fault::shouldInject(fault::Site::WorkerTimeout, label, attempt)) {
        for (;;) // hang until the heartbeat watchdog SIGKILLs us
            ::pause();
    }
    if (!fault::shouldInject(fault::Site::TransportDrop, label, attempt))
        sendOrDie(ctx.fd, FrameType::Heartbeat, ctx.name);

    try {
        if (fault::shouldInject(fault::Site::EvalError, label, attempt))
            throw std::runtime_error("injected eval fault (attempt " +
                                     std::to_string(attempt) + ")");
        const SweepResult r = SweepResult::fromScenarioResult(
            ctx.engine.evaluate(ctx.grid[idx]));
        sendOrDie(ctx.fd, FrameType::Result,
                  std::to_string(idx) + " " + runtime::toJsonRecord(r));
    } catch (const std::exception &e) {
        sendOrDie(ctx.fd, FrameType::EvalError,
                  std::to_string(idx) + " " + e.what());
    }
}

[[noreturn]] void
workerMain(int fd, int workerId, const ServerOptions &opts,
           const std::vector<Scenario> &grid)
{
    // Die with the supervisor: a daemon SIGKILL must not leak workers.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() == 1)
        ::_exit(1); // supervisor died before the prctl landed
    interrupt::clearStop(); // a stop meant for the daemon, not us

    runtime::SweepEngine engine;
    const WorkerContext ctx{fd, "w" + std::to_string(workerId),
                            opts.heartbeatMs, grid, engine};
    sendOrDie(fd, FrameType::Hello, ctx.name);

    FrameReader reader;
    for (;;) {
        struct pollfd pfd = {fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, ctx.heartbeatMs);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            ::_exit(1);
        }
        if (pr == 0) {
            // Idle: volunteer a beat so the supervisor can tell an
            // idle worker from a dead one.
            sendOrDie(fd, FrameType::Heartbeat, ctx.name);
            continue;
        }
        if (readIntoReader(fd, &reader) <= 0)
            ::_exit(0); // supervisor closed the pair: clean exit
        for (;;) {
            Frame f;
            std::string error;
            if (!reader.next(&f, &error)) {
                if (!error.empty())
                    ::_exit(1);
                break;
            }
            // Frames are handled in arrival order, so a Shutdown lands
            // between scenarios. Supervisor-bound types are ignored.
            if (f.type == FrameType::Shutdown)
                ::_exit(0);
            if (f.type == FrameType::Assign)
                runAssigned(ctx, f.body);
        }
    }
}

// ================================================= supervisor (parent)

/**
 * Identity-only record for a scenario that never produced a result —
 * what quarantine persists so the sweep completes with the failure
 * explicit instead of lost.
 */
SweepResult
quarantineRecord(const Scenario &s, int attempts, const std::string &error)
{
    SweepResult r;
    r.scenario = s;
    r.status = runtime::ResultStatus::Quarantined;
    r.attempts = attempts;
    r.error = error;
    return r;
}

/// Assignments a worker holds: the scenario it is running plus the next
/// one, waiting in its socket, so a worker never idles while the
/// supervisor is inside a commit's fsync. Deeper queues unbalance the
/// tail of a grid.
constexpr size_t kWorkerDepth = 2;

struct WorkerSlot
{
    pid_t pid = -1;
    int fd = -1;
    int workerId = -1;
    FrameReader reader;
    bool alive = false;
    bool ready = false; ///< Hello received; eligible for assignment.
    /// Grid indices assigned, in order: the front is running, the rest
    /// wait in the socket. Empty when idle.
    std::deque<size_t> held;
    Clock::time_point lastBeat;
};

/**
 * One grid's supervision state. Strictly single-threaded: fork() from
 * a threaded process can deadlock the child on locks some other
 * thread held at fork time, so all concurrency here is between
 * processes, never threads.
 */
class GridRun
{
  public:
    GridRun(const ServerOptions &opts, const std::vector<Scenario> &grid,
            runtime::Journal *journal)
        : opts_(opts), grid_(grid), journal_(journal),
          results_(grid.size()), attempts_(grid.size(), 0),
          notBefore_(grid.size())
    {
    }

    std::vector<SweepResult> run(JobOutcome *outcome);

  private:
    bool draining() const;
    void spawnWorker(WorkerSlot &slot);
    void respawnWorkers();
    void assign(WorkerSlot &slot);
    void checkWatchdogs();
    void reapWorkers();
    void pollSockets(int timeoutMs);
    void processFrames(WorkerSlot &slot);
    void handleFrame(WorkerSlot &slot, const Frame &f);
    void appendResult(size_t idx, SweepResult r);
    void commitResults();
    void charge(size_t idx, const std::string &error);
    void requeue(size_t idx);
    void workerGone(WorkerSlot &slot, const char *loss);
    void killWorker(WorkerSlot &slot, const char *loss);
    void shutdownWorkers(bool graceful);

    const ServerOptions &opts_;
    const std::vector<Scenario> &grid_;
    runtime::Journal *journal_; ///< Null: results are not journalled.
    std::vector<SweepResult> results_;
    /// This poll round's finished records, not yet durable or counted.
    std::vector<runtime::JournalRecord> batch_;
    std::vector<int> attempts_; ///< Assignment attempts, by grid index.
    std::vector<Clock::time_point> notBefore_; ///< Backoff gate, by index.
    std::deque<size_t> pending_; ///< Grid order; retries join the back.
    size_t unfinished_ = 0;      ///< Scenarios with no record yet.
    size_t okResults_ = 0;       ///< Finished records with status Ok.
    size_t quarantined_ = 0;     ///< Finished records given up on.
    std::vector<WorkerSlot> workers_;
    int spawned_ = 0;
    int restarts_ = 0;
    std::string failed_; ///< Non-empty aborts the run with this error.
};

/**
 * A stop was requested or the run failed: assign nothing and charge
 * nothing, so an interrupted scenario is left for a resume instead of
 * being quarantined for a loss that was not its own.
 */
bool
GridRun::draining() const
{
    return interrupt::stopRequested() || !failed_.empty();
}

void
GridRun::spawnWorker(WorkerSlot &slot)
{
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        failed_ = std::string("socketpair failed: ") + std::strerror(errno);
        return;
    }
    const int workerId = ++spawned_;
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(sv[0]);
        ::close(sv[1]);
        failed_ = std::string("fork failed: ") + std::strerror(errno);
        return;
    }
    if (pid == 0) {
        ::close(sv[0]);
        // Siblings' supervisor-side sockets leak into this child via
        // fork; close them so a sibling's EOF is not held open here.
        for (const WorkerSlot &other : workers_)
            if (other.alive && other.fd >= 0)
                ::close(other.fd);
        workerMain(sv[1], workerId, opts_, grid_);
    }
    ::close(sv[1]);
    slot.pid = pid;
    slot.fd = sv[0];
    slot.workerId = workerId;
    slot.reader = FrameReader{};
    slot.alive = true;
    slot.ready = false;
    slot.held.clear();
    slot.lastBeat = Clock::now();
    stats::counter("service.workers.spawned").inc();
}

void
GridRun::respawnWorkers()
{
    for (WorkerSlot &slot : workers_) {
        if (slot.alive || !failed_.empty())
            continue;
        if (restarts_ >= kMaxWorkerRestarts) {
            failed_ = "worker restart budget exhausted (" +
                      std::to_string(kMaxWorkerRestarts) +
                      " restarts)";
            return;
        }
        spawnWorker(slot);
        if (slot.alive && slot.workerId > opts_.numWorkers) {
            ++restarts_;
            stats::counter("service.workers.restarted").inc();
        }
    }
}

/**
 * Top a ready worker up to kWorkerDepth assignments, each the first
 * pending scenario past its backoff.
 */
void
GridRun::assign(WorkerSlot &slot)
{
    while (slot.alive && slot.ready && slot.held.size() < kWorkerDepth &&
           !draining()) {
        const auto now = Clock::now();
        const auto it =
            std::find_if(pending_.begin(), pending_.end(),
                         [&](size_t i) { return notBefore_[i] <= now; });
        if (it == pending_.end())
            return;
        const size_t idx = *it;
        pending_.erase(it);
        attempts_[idx] += 1;
        if (!sendFrame(slot.fd, Frame{FrameType::Assign,
                                      std::to_string(idx) + " " +
                                          std::to_string(attempts_[idx])})) {
            // The worker died between frames; this attempt never ran.
            requeue(idx);
            killWorker(slot, kWorkerLost);
            return;
        }
        slot.held.push_back(idx);
        stats::counter("service.scenarios.assigned").inc();
    }
}

/**
 * Queue scenario @p idx's finished record for this poll round's
 * commitResults(); until then it is neither durable nor counted.
 */
void
GridRun::appendResult(size_t idx, SweepResult r)
{
    batch_.push_back({idx, std::move(r)});
    // stop-after=K: the deterministic stand-in for a SIGTERM arriving
    // with the K-th result. It fires before the sender is topped up, so
    // the drain starts with at most kWorkerDepth scenarios per worker in
    // hand; the round's commit still journals and counts all K.
    if (fault::shouldStopAfterResult())
        interrupt::requestStop(SIGTERM);
}

/**
 * Journal the round's queued records with one fsync (the append
 * honours the torn / kill-after injection sites per record — the
 * latter is how CI kills the daemon itself mid-sweep); only then does
 * the in-memory state advance, so a daemon death never loses a result
 * counted as finished.
 */
void
GridRun::commitResults()
{
    if (batch_.empty())
        return;
    std::string error;
    if (journal_ != nullptr && !journal_->appendAll(batch_, &error))
        FSMOE_WARN(error);
    for (runtime::JournalRecord &rec : batch_) {
        ++(rec.result.status == runtime::ResultStatus::Ok ? okResults_
                                                          : quarantined_);
        results_[rec.index] = std::move(rec.result);
        --unfinished_;
    }
    batch_.clear();
}

/**
 * Charge scenario @p idx's failed attempt: retry it after its backoff,
 * or quarantine it with @p error once its attempts reach maxAttempts.
 */
void
GridRun::charge(size_t idx, const std::string &error)
{
    if (draining())
        return;
    if (attempts_[idx] >= opts_.retry.maxAttempts) {
        FSMOE_WARN("scenario ", grid_[idx].label(), " quarantined after ",
                   attempts_[idx], " attempts: ", error);
        appendResult(idx, quarantineRecord(grid_[idx], attempts_[idx], error));
        stats::counter("service.scenarios.quarantined").inc();
        return;
    }
    notBefore_[idx] = Clock::now() + std::chrono::milliseconds(
                                         opts_.retry.backoffMs(attempts_[idx]));
    pending_.push_back(idx);
    stats::counter("service.scenarios.retried").inc();
    FSMOE_VERBOSE("scenario ", idx, " retried (attempt ", attempts_[idx],
                  " failed: ", error, ")");
}

/** Hand back scenario @p idx, assigned but never started, uncharged. */
void
GridRun::requeue(size_t idx)
{
    attempts_[idx] -= 1;
    pending_.push_front(idx);
    stats::counter("service.scenarios.requeued").inc();
}

void
GridRun::handleFrame(WorkerSlot &slot, const Frame &f)
{
    slot.lastBeat = Clock::now();
    switch (f.type) {
    case FrameType::Hello:
        slot.ready = true;
        break;
    case FrameType::Heartbeat:
        stats::counter("service.heartbeats.received").inc();
        break;
    case FrameType::Result: {
        size_t idx = 0;
        SweepResult r;
        std::string error;
        if (!decodeResultFrame(f.body, grid_, &idx, &r, &error) ||
            slot.held.empty() || idx != slot.held.front()) {
            FSMOE_WARN("worker w", slot.workerId, ": ",
                       error.empty() ? "Result frame names a scenario it "
                                       "was not assigned"
                                     : error);
            killWorker(slot, kWorkerLost);
            break;
        }
        slot.held.pop_front();
        appendResult(idx, std::move(r));
        stats::counter("service.results.streamed").inc();
        assign(slot);
        break;
    }
    case FrameType::EvalError: {
        size_t idx = 0;
        std::string message;
        if (!splitIndexedBody(f.body, grid_.size(), &idx, &message) ||
            slot.held.empty() || idx != slot.held.front()) {
            FSMOE_WARN("worker w", slot.workerId,
                       ": EvalError frame does not name its scenario");
            killWorker(slot, kWorkerLost);
            break;
        }
        stats::counter("service.scenario.evalErrors").inc();
        slot.held.pop_front();
        charge(idx, message);
        assign(slot);
        break;
    }
    default:
        break; // worker-bound frame types: ignore
    }
}

void
GridRun::workerGone(WorkerSlot &slot, const char *loss)
{
    // Mark the slot dead *first*: the salvage below re-enters
    // handleFrame, whose failure paths call killWorker, and only the
    // alive flag keeps that from recursing back here.
    slot.alive = false;
    slot.ready = false;
    // Salvage every frame the worker streamed before dying: a result
    // it sent is real, and charging its scenario instead would let an
    // injected fault decide a second time. The worker is dead, so its
    // socket holds its last bytes and then EOF — draining it cannot
    // block. Framing errors just end the salvage.
    while (slot.fd >= 0 && readIntoReader(slot.fd, &slot.reader) > 0) {
    }
    for (;;) {
        Frame f;
        std::string error;
        if (!slot.reader.next(&f, &error))
            break;
        handleFrame(slot, f);
    }
    if (slot.fd >= 0)
        ::close(slot.fd);
    slot.fd = -1;
    if (slot.held.empty())
        return;
    // Only the front was running; the scenarios queued behind it never
    // started, so they go back first in line with their attempts
    // refunded.
    while (slot.held.size() > 1) {
        requeue(slot.held.back());
        slot.held.pop_back();
    }
    const size_t idx = slot.held.front();
    slot.held.clear();
    FSMOE_VERBOSE("worker w", slot.workerId, " gone (", loss,
                  ") running scenario ", idx);
    charge(idx, loss);
}

void
GridRun::killWorker(WorkerSlot &slot, const char *loss)
{
    if (!slot.alive)
        return;
    ::kill(slot.pid, SIGKILL);
    int status = 0;
    while (::waitpid(slot.pid, &status, 0) < 0 && errno == EINTR) {
    }
    workerGone(slot, loss);
}

void
GridRun::checkWatchdogs()
{
    const auto now = Clock::now();
    for (WorkerSlot &slot : workers_) {
        if (!slot.alive || slot.held.empty())
            continue;
        if (now - slot.lastBeat >
            std::chrono::milliseconds(opts_.heartbeatTimeoutMs)) {
            stats::counter("service.heartbeats.missed").inc();
            FSMOE_WARN("worker w", slot.workerId, " missed its heartbeat "
                       "deadline (", opts_.heartbeatTimeoutMs,
                       " ms); killing it and charging scenario ",
                       slot.held.front());
            killWorker(slot, kMissedHeartbeat);
        }
    }
}

void
GridRun::reapWorkers()
{
    for (WorkerSlot &slot : workers_) {
        if (!slot.alive)
            continue;
        int status = 0;
        const pid_t r = ::waitpid(slot.pid, &status, WNOHANG);
        if (r == slot.pid)
            workerGone(slot, kWorkerLost);
    }
}

void
GridRun::processFrames(WorkerSlot &slot)
{
    for (;;) {
        Frame f;
        std::string error;
        if (!slot.reader.next(&f, &error)) {
            if (!error.empty() && slot.alive) {
                FSMOE_WARN("worker w", slot.workerId, ": ", error);
                killWorker(slot, kWorkerLost);
            }
            return;
        }
        handleFrame(slot, f);
        if (!slot.alive)
            return; // handleFrame tore the worker down
    }
}

void
GridRun::pollSockets(int timeoutMs)
{
    std::vector<struct pollfd> pfds;
    std::vector<size_t> slotOf;
    for (size_t i = 0; i < workers_.size(); ++i) {
        if (!workers_[i].alive)
            continue;
        pfds.push_back({workers_[i].fd, POLLIN, 0});
        slotOf.push_back(i);
    }
    if (pfds.empty())
        return; // nothing to wait for: a poll() would just sleep
    const int pr = ::poll(pfds.data(), pfds.size(), timeoutMs);
    if (pr <= 0)
        return; // timeout, or EINTR (the stop flag is checked upstream)
    for (size_t k = 0; k < pfds.size(); ++k) {
        if ((pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
            continue;
        WorkerSlot &slot = workers_[slotOf[k]];
        if (!slot.alive)
            continue; // torn down while handling an earlier fd
        const long n = readIntoReader(slot.fd, &slot.reader);
        if (n > 0) {
            processFrames(slot);
        } else {
            // EOF or read error: the worker closed its end (injected
            // disconnect) or died. Make death official, then salvage.
            killWorker(slot, kWorkerLost);
        }
    }
}

void
GridRun::shutdownWorkers(bool graceful)
{
    if (graceful) {
        for (WorkerSlot &slot : workers_)
            if (slot.alive)
                (void)sendFrame(slot.fd, Frame{FrameType::Shutdown, ""});
        // Give workers one heartbeat-timeout to finish their current
        // scenario and exit, salvaging results they stream meanwhile.
        const auto deadline =
            Clock::now() +
            std::chrono::milliseconds(opts_.heartbeatTimeoutMs);
        while (Clock::now() < deadline) {
            bool any = false;
            for (WorkerSlot &slot : workers_)
                any = any || slot.alive;
            if (!any)
                break;
            reapWorkers();
            pollSockets(20);
            commitResults();
        }
    }
    for (WorkerSlot &slot : workers_)
        killWorker(slot, kWorkerLost);
    commitResults();
}

std::vector<SweepResult>
GridRun::run(JobOutcome *outcome)
{
    *outcome = JobOutcome{};
    outcome->scenarios = grid_.size();
    const std::map<size_t, SweepResult> none;
    const auto &recovered = journal_ != nullptr ? journal_->recovered() : none;
    for (size_t i = 0; i < grid_.size(); ++i) {
        // Only Ok records are done; failed/quarantined ones get a fresh
        // chance on this run, so a resume without fault injection
        // converges to the clean run's bytes.
        const auto it = recovered.find(i);
        if (it == recovered.end() ||
            it->second.status != runtime::ResultStatus::Ok) {
            pending_.push_back(i);
            continue;
        }
        results_[i] = it->second;
        ++okResults_;
        ++outcome->resumed;
        stats::counter("service.results.resumed").inc();
    }
    unfinished_ = pending_.size();

    bool interrupted = false;
    if (unfinished_ > 0) {
        workers_.resize(static_cast<size_t>(std::max(1, opts_.numWorkers)));
        for (WorkerSlot &slot : workers_) {
            spawnWorker(slot);
            if (!failed_.empty())
                break;
        }
        while (failed_.empty() && unfinished_ > 0) {
            if (interrupt::stopRequested()) {
                interrupted = true;
                break;
            }
            reapWorkers();
            checkWatchdogs();
            respawnWorkers();
            for (WorkerSlot &slot : workers_)
                assign(slot);
            pollSockets(std::max(1, opts_.heartbeatMs / 2));
            commitResults();
        }
        shutdownWorkers(/*graceful=*/failed_.empty());
    }
    // Unstarted scenarios have default records; these counts say how
    // many records are real.
    outcome->okResults = okResults_;
    outcome->quarantined = quarantined_;
    if (interrupted) {
        outcome->interrupted = true;
        outcome->error = "interrupted by signal";
    } else if (!failed_.empty()) {
        outcome->error = failed_;
    } else {
        outcome->ok = true;
    }
    return std::move(results_);
}

} // namespace

int
RetryPolicy::backoffMs(int attempt) const
{
    long ms = backoffBaseMs;
    for (int i = 1; i < attempt && ms < backoffMaxMs; ++i)
        ms *= 2;
    if (ms > backoffMaxMs)
        ms = backoffMaxMs;
    return static_cast<int>(ms);
}

bool
decodeResultFrame(const std::string &body, const std::vector<Scenario> &grid,
                  size_t *idx, SweepResult *out, std::string *error)
{
    std::string record;
    if (!splitIndexedBody(body, grid.size(), idx, &record)) {
        *error = "Result frame has no valid grid index";
        return false;
    }
    std::string parse_error;
    if (!runtime::parseJsonRecord(record, out, &parse_error)) {
        *error = "unparsable Result frame: " + parse_error;
        return false;
    }
    if (out->scenario.label() != grid[*idx].label()) {
        *error = "Result frame for grid index " + std::to_string(*idx) +
                 " carries '" + out->scenario.label() + "', want '" +
                 grid[*idx].label() + "'";
        return false;
    }
    return true;
}

std::vector<SweepResult>
SweepServer::runGrid(const std::vector<Scenario> &grid,
                     runtime::Journal *journal, JobOutcome *outcome)
{
    fault::configureFromEnv();
    GridRun run(opts_, grid, journal);
    return run.run(outcome);
}

bool
SweepServer::runJob(const JobSpec &job, const std::string &journalPath,
                    bool resume, JobOutcome *outcome)
{
    const std::vector<Scenario> grid = buildJobGrid(job);
    runtime::Journal journal;
    std::string error;
    if (!journal.open(journalPath, grid, resume, &error)) {
        *outcome = JobOutcome{};
        outcome->scenarios = grid.size();
        outcome->error = error;
        return false;
    }
    const std::vector<SweepResult> results =
        runGrid(grid, &journal, outcome);
    journal.close();
    if (!outcome->ok)
        return false;
    if (!runtime::writeResultsJson(job.outPath, results)) {
        outcome->ok = false;
        outcome->error = "cannot write merged results to " + job.outPath;
    }
    return outcome->ok;
}

int
SweepServer::serve(JobQueue &queue, bool once)
{
    interrupt::installStopHandlers();
    fault::configureFromEnv();
    for (;;) {
        if (interrupt::stopRequested())
            return interrupt::stopExitCode();
        std::string error;
        const std::vector<JobEntry> entries = queue.scan(&error);
        if (!error.empty())
            FSMOE_WARN(error);
        bool ranJob = false;
        for (const JobEntry &entry : entries) {
            if (interrupt::stopRequested())
                return interrupt::stopExitCode();
            if (entry.state != "queued" && entry.state != "active")
                continue;
            JobSpec job;
            if (!queue.loadSpec(entry.id, &job, &error)) {
                FSMOE_WARN("job ", entry.id, ": ", error);
                (void)queue.setState(entry.id, "failed " + error, &error);
                continue;
            }
            const std::string journal = queue.journalPath(entry.id);
            // An "active" job is a previous daemon's unfinished work;
            // either way an existing journal means resume.
            const bool resume = ::access(journal.c_str(), F_OK) == 0;
            stats::counter(entry.state == "queued"
                               ? "service.jobs.queued"
                               : "service.jobs.recovered")
                .inc();
            if (!queue.setState(entry.id, "active", &error))
                FSMOE_WARN(error);
            stats::gauge("service.jobs.active").set(1.0);
            std::printf("job %s: running (%s%s)\n", entry.id.c_str(),
                        entry.state.c_str(),
                        resume ? ", resuming from journal" : "");
            std::fflush(stdout);
            JobOutcome out;
            runJob(job, journal, resume, &out);
            stats::gauge("service.jobs.active").set(0.0);
            ranJob = true;
            if (out.ok) {
                stats::counter("service.jobs.done").inc();
                if (!queue.setState(entry.id, "done", &error))
                    FSMOE_WARN(error);
                std::printf("job %s: done (%zu scenarios: %zu ok, %zu "
                            "quarantined, %zu resumed) -> %s\n",
                            entry.id.c_str(), out.scenarios, out.okResults,
                            out.quarantined, out.resumed,
                            job.outPath.c_str());
                std::fflush(stdout);
            } else if (out.interrupted) {
                // Leave the job "active": the next daemon resumes it
                // from the journal and converges to the same bytes.
                std::printf("job %s: interrupted; left active — restart "
                            "fsmoe_sweepd to resume from %s\n",
                            entry.id.c_str(), journal.c_str());
                std::fflush(stdout);
                return interrupt::stopExitCode();
            } else {
                stats::counter("service.jobs.failed").inc();
                FSMOE_WARN("job ", entry.id, " failed: ", out.error);
                if (!queue.setState(entry.id, "failed " + out.error,
                                    &error))
                    FSMOE_WARN(error);
            }
        }
        if (ranJob)
            continue; // rescan: running a job takes time; queue may grow
        if (once)
            return 0;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kQueuePollMs));
    }
}

void
printServiceCounters()
{
    static const char *const kNames[] = {
        "service.jobs.queued",
        "service.jobs.recovered",
        "service.jobs.done",
        "service.jobs.failed",
        "service.workers.spawned",
        "service.workers.restarted",
        "service.heartbeats.received",
        "service.heartbeats.missed",
        "service.scenarios.assigned",
        "service.scenarios.retried",
        "service.scenarios.requeued",
        "service.scenarios.quarantined",
        "service.results.streamed",
        "service.results.resumed",
        "service.scenario.evalErrors",
    };
    std::printf("service counters (this process):\n");
    for (const char *name : kNames) {
        const uint64_t v = stats::counter(name).value();
        if (v > 0)
            std::printf("  %-34s %llu\n", name,
                        static_cast<unsigned long long>(v));
    }
}

} // namespace fsmoe::service
