#include "service/sweep_server.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
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

// The quarantine error of a scenario whose shard's last worker was lost
// without an eval error: one text per loss class, whichever of socket
// EOF or waitpid noticed the death first.
constexpr const char *kWorkerLost = "worker lost before reporting a result";
constexpr const char *kMissedHeartbeat =
    "worker missed its heartbeat deadline";

/** Split "<gridIndex> <rest>"; the index must be decimal and in range. */
bool
splitIndexedBody(const std::string &body, size_t gridSize, size_t *idx,
                 std::string *rest)
{
    const size_t space = body.find(' ');
    if (space == std::string::npos)
        return false;
    size_t v = 0;
    const char *end = body.data() + space;
    const auto parsed = std::from_chars(body.data(), end, v);
    if (parsed.ec != std::errc() || parsed.ptr != end || v >= gridSize)
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
    /// Sim cache off: every scenario is evaluated once per attempt, so
    /// memoizing SimResults would only grow the worker's RSS.
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
 * Drain buffered + immediately-readable frames between scenarios so a
 * Shutdown issued mid-shard stops the worker at the next scenario
 * boundary. Returns true when a Shutdown was seen.
 */
bool
shutdownPending(int fd, FrameReader *reader)
{
    for (;;) {
        Frame f;
        std::string error;
        while (reader->next(&f, &error)) {
            if (f.type == FrameType::Shutdown)
                return true;
        }
        if (!error.empty())
            ::_exit(1); // framing broke; the stream is unusable
        struct pollfd pfd = {fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 0);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            ::_exit(1);
        }
        if (pr == 0)
            return false;
        if (readIntoReader(fd, reader) <= 0)
            ::_exit(0); // EOF: supervisor died; PDEATHSIG races this
    }
}

/**
 * Evaluate one Assign frame's scenarios, streaming a Result (or
 * EvalError) per index. @p shutdown is set when a Shutdown arrived
 * mid-shard (the shard is left unfinished; the supervisor is draining
 * and will not reassign it).
 */
void
runAssignedShard(const WorkerContext &ctx, const std::string &body,
                 FrameReader *reader, bool *shutdown)
{
    std::istringstream iss(body);
    int shardId = -1;
    int attempt = 1;
    size_t n = 0;
    if (!(iss >> shardId >> attempt >> n))
        ::_exit(1);
    std::vector<size_t> indices(n);
    for (size_t i = 0; i < n; ++i)
        if (!(iss >> indices[i]))
            ::_exit(1);

    for (size_t idx : indices) {
        if (shutdownPending(ctx.fd, reader)) {
            *shutdown = true;
            return;
        }
        if (idx >= ctx.grid.size())
            ::_exit(1); // a corrupt Assign frame
        const std::string label = ctx.grid[idx].label();

        // Injection sites, each proving one supervisor failover path
        // (runtime/fault.h). Keyed on (label, shard attempt) so a
        // reassigned shard makes fresh — but still deterministic —
        // decisions.
        if (fault::shouldInject(fault::Site::WorkerCrash, label, attempt))
            ::_exit(137); // SIGKILL-style: no goodbye on the socket
        if (fault::shouldInject(fault::Site::TransportDisconnect, label,
                                attempt)) {
            ::close(ctx.fd); // EOF reaches the supervisor mid-shard
            ::_exit(1);
        }
        if (fault::shouldInject(fault::Site::WorkerTimeout, label,
                                attempt)) {
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
    sendOrDie(ctx.fd, FrameType::ShardDone, std::to_string(shardId));
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

    runtime::SweepOptions engineOpts;
    engineOpts.enableSimCache = false;
    runtime::SweepEngine engine(engineOpts);
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
            // Supervisor-bound frame types are ignored.
            bool shutdown = f.type == FrameType::Shutdown;
            if (f.type == FrameType::Assign)
                runAssignedShard(ctx, f.body, &reader, &shutdown);
            if (shutdown)
                ::_exit(0);
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
    r.model = s.model;
    r.cluster = s.cluster;
    r.schedule = s.schedule;
    r.batch = s.batch;
    r.seqLen = s.seqLen;
    r.numLayers = s.numLayers;
    r.numExperts = s.numExperts;
    r.rMax = s.rMax;
    r.status = runtime::ResultStatus::Quarantined;
    r.attempts = attempts;
    r.error = error;
    return r;
}

struct WorkerSlot
{
    pid_t pid = -1;
    int fd = -1;
    int workerId = -1;
    FrameReader reader;
    bool alive = false;
    bool ready = false; ///< Hello received; eligible for assignment.
    int shard = -1;     ///< Active shard id, -1 when idle.
    Clock::time_point lastBeat;
};

enum class ShardState
{
    Pending,
    Active,
    Done,
};

struct Shard
{
    std::vector<size_t> remaining; ///< Grid indices not yet finished.
    int attempts = 0;              ///< Assignment attempts started.
    ShardState state = ShardState::Pending;
    Clock::time_point notBefore; ///< Backoff gate for reassignment.
    const char *lastLoss = kWorkerLost; ///< Class of the last lost worker.
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
          results_(grid.size()), done_(grid.size(), 0)
    {
    }

    std::vector<SweepResult> run(JobOutcome *outcome);

  private:
    void buildShards();
    void spawnWorker(WorkerSlot &slot);
    void respawnWorkers();
    void assignShards();
    void checkWatchdogs();
    void reapWorkers();
    void pollSockets(int timeoutMs);
    void processFrames(WorkerSlot &slot);
    void handleFrame(WorkerSlot &slot, const Frame &f);
    void appendResult(size_t idx, const SweepResult &r);
    void workerGone(WorkerSlot &slot, const char *loss);
    void killWorker(WorkerSlot &slot, const char *loss);
    void finishOrReassign(int shardId);
    void quarantineShard(int shardId);
    void shutdownWorkers(bool graceful);
    bool allShardsDone() const;

    const ServerOptions &opts_;
    const std::vector<Scenario> &grid_;
    runtime::Journal *journal_; ///< Null: results are not journalled.
    std::vector<SweepResult> results_;
    std::vector<char> done_;
    std::map<size_t, std::string> lastError_;
    std::vector<Shard> shards_;
    std::vector<WorkerSlot> workers_;
    int spawned_ = 0;
    int restarts_ = 0;
    size_t resumed_ = 0;
    std::string failed_; ///< Non-empty aborts the run with this error.
};

void
GridRun::buildShards()
{
    std::vector<size_t> pending;
    for (size_t i = 0; i < grid_.size(); ++i)
        if (done_[i] == 0)
            pending.push_back(i);
    if (pending.empty())
        return;
    // Contiguous slices, the same arithmetic as shardScenarios(): a
    // lost worker forfeits at most one slice, and slice boundaries are
    // deterministic for a given (grid, worker count).
    size_t count = static_cast<size_t>(opts_.numWorkers) *
                   static_cast<size_t>(opts_.shardsPerWorker);
    count = std::max<size_t>(1, std::min(count, pending.size()));
    shards_.resize(count);
    for (size_t k = 0; k < count; ++k) {
        const size_t lo = pending.size() * k / count;
        const size_t hi = pending.size() * (k + 1) / count;
        shards_[k].remaining.assign(pending.begin() + static_cast<long>(lo),
                                    pending.begin() + static_cast<long>(hi));
    }
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
    slot.shard = -1;
    slot.lastBeat = Clock::now();
    stats::counter("service.workers.spawned").inc();
}

void
GridRun::respawnWorkers()
{
    for (WorkerSlot &slot : workers_) {
        if (slot.alive || !failed_.empty())
            continue;
        if (restarts_ >= opts_.maxWorkerRestarts) {
            failed_ = "worker restart budget exhausted (" +
                      std::to_string(opts_.maxWorkerRestarts) +
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

void
GridRun::assignShards()
{
    const auto now = Clock::now();
    for (WorkerSlot &slot : workers_) {
        if (!slot.alive || !slot.ready || slot.shard >= 0)
            continue;
        int pick = -1;
        for (size_t s = 0; s < shards_.size(); ++s) {
            if (shards_[s].state == ShardState::Pending &&
                shards_[s].notBefore <= now) {
                pick = static_cast<int>(s);
                break;
            }
        }
        if (pick < 0)
            return;
        Shard &sh = shards_[static_cast<size_t>(pick)];
        sh.attempts += 1;
        sh.state = ShardState::Active;
        std::ostringstream body;
        body << pick << " " << sh.attempts << " " << sh.remaining.size();
        for (size_t idx : sh.remaining)
            body << " " << idx;
        slot.shard = pick;
        if (!sendFrame(slot.fd, Frame{FrameType::Assign, body.str()})) {
            // The worker died between frames; the attempt never ran,
            // so hand it back without burning retry budget.
            sh.attempts -= 1;
            killWorker(slot, kWorkerLost);
            continue;
        }
        stats::counter("service.shards.assigned").inc();
    }
}

void
GridRun::appendResult(size_t idx, const SweepResult &r)
{
    // The append is fsync'd (and honours the torn / kill-after
    // injection sites — the latter is how CI kills the daemon itself
    // mid-sweep); only then does the in-memory state advance, so a
    // daemon death never loses an acknowledged result.
    std::string error;
    if (journal_ != nullptr && !journal_->append(idx, r, &error))
        FSMOE_WARN(error);
    results_[idx] = r;
    done_[idx] = 1;
    // stop-after=K: the deterministic stand-in for a SIGTERM arriving
    // once K results have finished; run() then drains gracefully.
    if (fault::shouldStopAfterResult())
        interrupt::requestStop(SIGTERM);
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
        if (!decodeResultFrame(f.body, grid_, &idx, &r, &error)) {
            FSMOE_WARN("worker w", slot.workerId, ": ", error);
            killWorker(slot, kWorkerLost);
            break;
        }
        // A dead worker is drained before its shard is reassigned, so
        // an index arrives once; should it ever arrive twice, evaluation
        // is pure, so the bytes match and the first one wins.
        if (done_[idx] == 0) {
            appendResult(idx, r);
            stats::counter("service.results.streamed").inc();
        }
        if (slot.shard >= 0) {
            auto &rem = shards_[static_cast<size_t>(slot.shard)].remaining;
            const auto it = std::find(rem.begin(), rem.end(), idx);
            if (it != rem.end())
                rem.erase(it);
        }
        break;
    }
    case FrameType::EvalError: {
        size_t idx = 0;
        std::string message;
        if (!splitIndexedBody(f.body, grid_.size(), &idx, &message)) {
            FSMOE_WARN("worker w", slot.workerId,
                       ": EvalError frame has no valid grid index");
            killWorker(slot, kWorkerLost);
            break;
        }
        lastError_[idx] = message;
        stats::counter("service.scenario.evalErrors").inc();
        break;
    }
    case FrameType::ShardDone: {
        const int shardId = slot.shard;
        slot.shard = -1;
        if (shardId >= 0)
            finishOrReassign(shardId);
        break;
    }
    default:
        break; // worker-bound frame types: ignore
    }
}

void
GridRun::finishOrReassign(int shardId)
{
    Shard &sh = shards_[static_cast<size_t>(shardId)];
    if (sh.remaining.empty()) {
        sh.state = ShardState::Done;
        return;
    }
    if (sh.attempts >= opts_.retry.maxAttempts) {
        quarantineShard(shardId);
        return;
    }
    sh.state = ShardState::Pending;
    sh.notBefore = Clock::now() + std::chrono::milliseconds(
                                      opts_.retry.backoffMs(sh.attempts));
    stats::counter("service.shards.reassigned").inc();
    FSMOE_VERBOSE("shard ", shardId, " reassigned (attempt ", sh.attempts,
                  ", ", sh.remaining.size(), " scenarios left)");
}

void
GridRun::quarantineShard(int shardId)
{
    Shard &sh = shards_[static_cast<size_t>(shardId)];
    for (size_t idx : sh.remaining) {
        const auto it = lastError_.find(idx);
        const std::string msg =
            it != lastError_.end() ? it->second : sh.lastLoss;
        appendResult(idx, quarantineRecord(grid_[idx], sh.attempts, msg));
    }
    FSMOE_WARN("shard ", shardId, " quarantined after ", sh.attempts,
               " attempts (", sh.remaining.size(), " scenarios)");
    sh.remaining.clear();
    sh.state = ShardState::Done;
    stats::counter("service.shards.quarantined").inc();
}

void
GridRun::workerGone(WorkerSlot &slot, const char *loss)
{
    // Mark the slot dead *first*: the salvage below re-enters
    // handleFrame, whose failure paths call killWorker, and only the
    // alive flag keeps that from recursing back here.
    slot.alive = false;
    slot.ready = false;
    // Salvage every frame the worker streamed before dying: results it
    // sent are real, and re-running them at the next shard attempt
    // would let injected faults decide differently. The worker is dead,
    // so its socket holds its last bytes and then EOF — draining it
    // cannot block. Framing errors just end the salvage.
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
    const int shardId = slot.shard;
    slot.shard = -1;
    if (shardId >= 0) {
        FSMOE_VERBOSE("worker w", slot.workerId, " gone (", loss,
                      ") holding shard ", shardId);
        shards_[static_cast<size_t>(shardId)].lastLoss = loss;
        finishOrReassign(shardId);
    }
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
        if (!slot.alive || slot.shard < 0)
            continue;
        if (now - slot.lastBeat >
            std::chrono::milliseconds(opts_.heartbeatTimeoutMs)) {
            stats::counter("service.heartbeats.missed").inc();
            FSMOE_WARN("worker w", slot.workerId, " missed its heartbeat "
                       "deadline (", opts_.heartbeatTimeoutMs,
                       " ms); killing and reassigning shard ", slot.shard);
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
    if (pfds.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(timeoutMs));
        return;
    }
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
        }
    }
    for (WorkerSlot &slot : workers_)
        killWorker(slot, kWorkerLost);
}

bool
GridRun::allShardsDone() const
{
    for (const Shard &sh : shards_)
        if (sh.state != ShardState::Done)
            return false;
    return true;
}

std::vector<SweepResult>
GridRun::run(JobOutcome *outcome)
{
    *outcome = JobOutcome{};
    outcome->scenarios = grid_.size();
    if (journal_ != nullptr) {
        for (const auto &entry : journal_->recovered()) {
            // Only Ok records are done; failed/quarantined ones get a
            // fresh chance on this run, so a resume without fault
            // injection converges to the clean run's bytes.
            if (entry.first < grid_.size() &&
                entry.second.status == runtime::ResultStatus::Ok) {
                results_[entry.first] = entry.second;
                done_[entry.first] = 1;
                ++resumed_;
                stats::counter("service.results.resumed").inc();
            }
        }
    }
    outcome->resumed = resumed_;

    buildShards();
    if (!shards_.empty()) {
        workers_.resize(static_cast<size_t>(std::max(1, opts_.numWorkers)));
        for (WorkerSlot &slot : workers_) {
            spawnWorker(slot);
            if (!failed_.empty())
                break;
        }
        while (failed_.empty() && !allShardsDone()) {
            if (interrupt::stopRequested()) {
                shutdownWorkers(/*graceful=*/true);
                outcome->interrupted = true;
                outcome->error = "interrupted by signal";
                return std::move(results_);
            }
            reapWorkers();
            checkWatchdogs();
            respawnWorkers();
            assignShards();
            pollSockets(std::max(1, opts_.heartbeatMs / 2));
        }
        shutdownWorkers(/*graceful=*/failed_.empty());
    }
    if (!failed_.empty()) {
        outcome->error = failed_;
        return std::move(results_);
    }
    outcome->ok = true;
    for (const SweepResult &r : results_) {
        if (r.status == runtime::ResultStatus::Ok)
            ++outcome->okResults;
        else
            ++outcome->quarantined;
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
    if (out->key() != grid[*idx].label()) {
        *error = "Result frame for grid index " + std::to_string(*idx) +
                 " carries '" + out->key() + "', want '" +
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
            std::chrono::milliseconds(opts_.queuePollMs));
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
        "service.shards.assigned",
        "service.shards.reassigned",
        "service.shards.quarantined",
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
