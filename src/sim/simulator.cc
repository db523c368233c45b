#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "base/audit.h"
#include "base/stats.h"
#include "sim/trace.h"

namespace fsmoe::sim {

namespace {

/**
 * Registry handles, resolved once. The hot loop counts into plain
 * locals and flushes here once per run() — the simulator's inner loop
 * never touches an atomic.
 */
struct SimStats
{
    stats::Counter &runs = stats::counter("sim.runs");
    stats::Counter &runsCut = stats::counter("sim.runs.cut");
    stats::Counter &tasks = stats::counter("sim.tasks.executed");
    stats::Counter &events = stats::counter("sim.events.processed");
    stats::Counter &heapPushes = stats::counter("sim.heap.pushes");
    stats::Counter &heapPops = stats::counter("sim.heap.pops");
    std::array<stats::Gauge *, static_cast<size_t>(Link::NumLinks)>
        linkBusy{};

    SimStats()
    {
        for (size_t li = 0; li < linkBusy.size(); ++li)
            linkBusy[li] = &stats::gauge(
                std::string("sim.link.") +
                linkName(static_cast<Link>(li)) + ".busyMs");
    }

    static SimStats &instance()
    {
        static SimStats s;
        return s;
    }
};

} // namespace

/*
 * The inner loop keeps, per link, the set of *issuable* candidates:
 * stream heads whose dependencies have all finished. A free link
 * starts the candidate with the smallest arbitration key (priority,
 * readyTime, issue id). When a task finishes, only its dependents are
 * examined; when a task starts, only the next task on its stream is.
 * That replaces the naive O(links x streams) rescan per event while
 * reproducing the naive scan's choices bit-exactly (the fuzz test in
 * tests/sim_fuzz_test.cc checks this against the retained reference
 * implementation in tests/sim_reference.h).
 *
 * Why every candidate is eligible *now*: a task's readyTime is the
 * max finish time over its dependencies, which is fixed by the time
 * the last dependency completes — an event at or before the current
 * clock. A task becomes a candidate only once it is the head of its
 * stream with zero pending dependencies, so readyTime <= now holds at
 * insertion and forever after (the clock never rewinds). The naive
 * scan's `readyTime > now` filter is therefore vacuous, and the
 * set's minimum *is* the task the scan would have picked.
 *
 * Both conditions are one counter: a task's pending count is its
 * dependency count, plus one while its stream predecessor has not
 * started. It drops when a dependency finishes or the predecessor
 * starts, and the task becomes a candidate when it reaches zero.
 */

namespace {

/// A link's candidate set is an unordered array, scanned on pop, while
/// it holds at most this many tasks (schedule graphs hold 1-3); beyond
/// it, the set is a binary heap until it empties.
constexpr size_t kScanLimit = 8;

/// End of a dependents list.
constexpr uint32_t kNoEdge = std::numeric_limits<uint32_t>::max();

/** The per-task state the event loop reads and writes. */
struct HotTask
{
    double duration;
    double ready;        ///< Latest finish among finished dependencies.
    uint32_t firstEdge;  ///< First of its dependents' edges, or kNoEdge.
    TaskId nextOnStream; ///< The task after it on its stream, or -1.
    int32_t pending;     ///< See the comment above.
    int32_t priority;
};
static_assert(sizeof(HotTask) == 32, "one hot record is 32 bytes");

/** A task's link and op class, read when it is pushed or finishes. */
struct LinkOp
{
    uint8_t link;
    uint8_t op;
};

/** One dependency edge, in its dependency's list of dependents. */
struct Edge
{
    TaskId dependent;
    uint32_t next; ///< The next edge of the same list, or kNoEdge.
};

/** An issuable task with its arbitration key. */
struct Cand
{
    double ready;
    int32_t priority;
    TaskId id;
};

/** Whether @p a wins a link over @p b: the smaller key. */
bool
winsOver(const Cand &a, const Cand &b)
{
    if (a.priority != b.priority)
        return a.priority < b.priority;
    if (a.ready != b.ready)
        return a.ready < b.ready;
    return a.id < b.id;
}

/** One link's issuable tasks: scanned up to kScanLimit, else a heap. */
class CandidateSet
{
  public:
    bool empty() const { return size_ == 0; }

    void push(const Cand &c)
    {
        if (in_heap_) {
            heap_.push_back(c);
            std::push_heap(heap_.begin(), heap_.end(), HeapAfter{});
        } else if (size_ < kScanLimit) {
            scan_[size_] = c;
        } else {
            heap_.assign(scan_.begin(), scan_.end());
            heap_.push_back(c);
            std::make_heap(heap_.begin(), heap_.end(), HeapAfter{});
            in_heap_ = true;
        }
        ++size_;
    }

    /** Remove and return the winner. The set must not be empty. */
    TaskId pop()
    {
        if (in_heap_) {
            std::pop_heap(heap_.begin(), heap_.end(), HeapAfter{});
            const TaskId id = heap_.back().id;
            heap_.pop_back();
            in_heap_ = --size_ != 0;
            return id;
        }
        size_t best = 0;
        for (size_t i = 1; i < size_; ++i)
            if (winsOver(scan_[i], scan_[best]))
                best = i;
        const TaskId id = scan_[best].id;
        scan_[best] = scan_[--size_];
        return id;
    }

  private:
    // std::push_heap keeps the largest element at the front, so the
    // heap orders by the inverted key.
    struct HeapAfter
    {
        bool operator()(const Cand &a, const Cand &b) const
        {
            return winsOver(b, a);
        }
    };

    std::array<Cand, kScanLimit> scan_{};
    size_t size_ = 0;      ///< Tasks in the set, in scan_ or in heap_.
    bool in_heap_ = false; ///< Whether heap_ holds them.
    std::vector<Cand> heap_;
};

/**
 * Completion events: a binary min-heap on (finish time, task id), a
 * total order. Schedule graphs keep 1-3 events pending; on them this
 * plain sift-up/sift-down heap beat std::priority_queue by about 10%
 * of a run.
 */
class EventQueue
{
  public:
    using Event = std::pair<double, TaskId>;

    bool empty() const { return heap_.empty(); }

    void push(double finish, TaskId id)
    {
        const Event e{finish, id};
        size_t k = heap_.size();
        heap_.emplace_back();
        while (k > 0 && e < heap_[(k - 1) / 2]) {
            heap_[k] = heap_[(k - 1) / 2];
            k = (k - 1) / 2;
        }
        heap_[k] = e;
    }

    /** Remove and return the earliest event. The queue must not be empty. */
    Event pop()
    {
        const Event top = heap_.front();
        const Event last = heap_.back();
        heap_.pop_back();
        const size_t m = heap_.size();
        if (m == 0)
            return top;
        size_t k = 0;
        for (size_t c = 1; c < m; c = 2 * k + 1) {
            if (c + 1 < m && heap_[c + 1] < heap_[c])
                ++c;
            if (!(heap_[c] < last))
                break;
            heap_[k] = heap_[c];
            k = c;
        }
        heap_[k] = last;
        return top;
    }

  private:
    std::vector<Event> heap_;
};

/**
 * The event loop behind run(), price() and the cutoff runs.
 * Simulates @p graph into @p result, writing result.trace only when
 * @p record_trace (the caller sizes it), and gives up — returning
 * false with @p result partial — once the makespan is proven
 * >= @p cutoff. With cutoff = +inf it never gives up.
 */
bool
simulate(const TaskGraph &graph, double cutoff, bool record_trace,
         SimResult &result)
{
    // Debug-mode audit: full CSR/acyclicity validation of the input
    // graph (compiled out of Release; see base/audit.h).
    FSMOE_AUDIT(auditTaskGraph(graph));

    const Task *tasks = graph.tasks().data();
    const size_t n = graph.size();
    SimStats &sim_stats = SimStats::instance();
    sim_stats.runs.inc();
    const bool can_cut = cutoff < std::numeric_limits<double>::infinity();
    if (can_cut && Simulator::makespanLowerBound(graph) >= cutoff) {
        sim_stats.runsCut.inc();
        return false;
    }
    if (n == 0)
        return true;

    // Local telemetry, flushed to the registry once after the loop.
    uint64_t heap_pushes = 0;
    uint64_t heap_pops = 0;
    uint64_t events_processed = 0;

    // The run's index, in one pass over the tasks and the dependency
    // pool: each task's hot record and {link, op}, and its dependents
    // as a list of edges (edge j is dependency j of the pool),
    // prepended, so they are visited latest first. Their order cannot
    // change a choice: the arbitration key is a total order. A task's
    // pending count is final once the pass reaches it, so the pass
    // also fills the candidate sets. The blocks start uninitialized:
    // the pass writes every field before anything reads it.
    const std::unique_ptr<HotTask[]> hot(new HotTask[n]);
    const std::unique_ptr<LinkOp[]> link_op(new LinkOp[n]);
    const std::unique_ptr<Edge[]> edges(new Edge[graph.numDeps()]);
    std::array<CandidateSet, static_cast<size_t>(Link::NumLinks)> cands;
    auto push_cand = [&](TaskId id) {
        cands[link_op[id].link].push({hot[id].ready, hot[id].priority, id});
        ++heap_pushes;
    };
    {
        const TaskId *dep_pool = graph.depPool().data();
        std::vector<TaskId> stream_tail(graph.numStreams(), -1);
        for (size_t i = 0; i < n; ++i) {
            const Task &t = tasks[i];
            const auto id = static_cast<TaskId>(i);
            int32_t pending = static_cast<int32_t>(t.depCount);
            for (uint32_t j = t.depBegin; j < t.depBegin + t.depCount; ++j) {
                HotTask &dep = hot[dep_pool[j]];
                edges[j] = {id, dep.firstEdge};
                dep.firstEdge = j;
            }
            TaskId &tail = stream_tail[t.stream];
            if (tail >= 0) {
                hot[tail].nextOnStream = id;
                ++pending;
            }
            tail = id;
            hot[i] = {t.duration, 0.0, kNoEdge, -1, pending, t.priority};
            link_op[i] = {static_cast<uint8_t>(t.link),
                          static_cast<uint8_t>(t.op)};
            if (pending == 0)
                push_cand(id);
        }
    }

#if FSMOE_AUDIT_ENABLED
    // The pop checks' own state, so they do not trust the index: each
    // stream's head in issue order, and which tasks finished.
    uint64_t audit_pop_checks = 0;
    const bool audit_on = audit::enabled();
    std::vector<TaskId> audit_head;
    std::vector<uint8_t> audit_finished;
    if (audit_on) {
        audit_head.assign(graph.numStreams(), -1);
        for (size_t i = n; i-- > 0;)
            audit_head[tasks[i].stream] = static_cast<TaskId>(i);
        audit_finished.assign(n, 0);
    }
#endif

    std::array<double, static_cast<size_t>(Link::NumLinks)> link_free{};
    link_free.fill(0.0);

    EventQueue events;

    size_t finished_count = 0;
    double now = 0.0;

    // Remaining-work cut (Simulator::remainingWorkBound): each link's
    // shrunk duration sum, and the running sum of what it started.
    std::array<double, static_cast<size_t>(Link::NumLinks)> sum_lo{};
    std::array<double, static_cast<size_t>(Link::NumLinks)> started{};
    started.fill(0.0);
    for (size_t li = 0; li < sum_lo.size(); ++li)
        sum_lo[li] = Simulator::shrunkLinkSum(
            graph.linkDurationSum(static_cast<Link>(li)), n);
    auto remaining_work_reaches_cutoff = [&]() {
        for (size_t li = 0; li < link_free.size(); ++li)
            if (Simulator::remainingWorkBound(std::max(now, link_free[li]),
                                              sum_lo[li], started[li],
                                              n) >= cutoff)
                return true;
        return false;
    };

    auto start_best = [&](size_t li) {
        const TaskId id = cands[li].pop();
        ++heap_pops;
        const HotTask &h = hot[id];
#if FSMOE_AUDIT_ENABLED
        // Ready-set invariants: whatever wins a link must be an
        // unfinished stream head with no pending deps, eligible *now*,
        // on a link that is actually free (the header comment's "every
        // candidate is eligible now" argument, checked live).
        if (audit_on) {
            const Task &t = tasks[id];
            if (audit_finished[id])
                FSMOE_PANIC("ready-set audit: popped finished task ", id);
            if (h.pending != 0)
                FSMOE_PANIC("ready-set audit: popped task ", id, " with ",
                            h.pending, " pending dependencies");
            if (static_cast<size_t>(t.link) != li)
                FSMOE_PANIC("ready-set audit: task ", id, " on link ",
                            linkName(t.link),
                            " surfaced in another link's set");
            if (audit_head[t.stream] != id)
                FSMOE_PANIC("ready-set audit: popped task ", id,
                            " is not the head of stream ", t.stream);
            if (h.ready > now)
                FSMOE_PANIC("ready-set audit: popped task ", id,
                            " ready at ", h.ready,
                            " which is after now=", now);
            if (link_free[li] > now)
                FSMOE_PANIC("ready-set audit: link ", linkName(t.link),
                            " busy until ", link_free[li],
                            " issued a task at now=", now);
            audit_head[t.stream] = h.nextOnStream;
            ++audit_pop_checks;
        }
#endif
        const double finish = now + h.duration;
        if (record_trace)
            result.trace[id] = {id, now, finish};
        link_free[li] = finish;
        started[li] += h.duration;
        events.push(finish, id);
        if (h.nextOnStream >= 0 && --hot[h.nextOnStream].pending == 0)
            push_cand(h.nextOnStream);
    };

    auto try_start = [&]() {
        // Keep starting tasks until no link can accept one at `now`.
        // Pass structure (links in index order, at most one start per
        // link per pass) matches the reference scan, so the start
        // sequence — and with it every timestamp — is identical.
        bool progressed = true;
        while (progressed) {
            progressed = false;
            for (size_t li = 0; li < link_free.size(); ++li) {
                if (cands[li].empty() || link_free[li] > now)
                    continue;
                start_best(li);
                progressed = true;
            }
        }
    };

    // Each started task has one completion event, so every popped
    // event finishes a task.
    bool cut = false;
    try_start();
    while (finished_count < n) {
        FSMOE_ASSERT(!events.empty(),
                     "simulator deadlock: no runnable task; check for "
                     "dependency cycles or stream-order inversions");
        const auto [t_now, id] = events.pop();
        ++events_processed;
        if (can_cut && t_now >= cutoff) {
            cut = true;
            break;
        }
        now = t_now;
#if FSMOE_AUDIT_ENABLED
        if (audit_on)
            audit_finished[id] = 1;
#endif
        finished_count++;
        const HotTask &h = hot[id];
        result.opTime[link_op[id].op] += h.duration;
        result.linkBusyMs[link_op[id].link] += h.duration;
        result.makespan = std::max(result.makespan, t_now);
        for (uint32_t e = h.firstEdge; e != kNoEdge; e = edges[e].next) {
            const TaskId dependent = edges[e].dependent;
            HotTask &d = hot[dependent];
            d.ready = std::max(d.ready, t_now);
            if (--d.pending == 0)
                push_cand(dependent);
        }
        try_start();
        if (can_cut && remaining_work_reaches_cutoff()) {
            cut = true;
            break;
        }
    }

#if FSMOE_AUDIT_ENABLED
    if (audit_pop_checks > 0) {
        static stats::Counter &pop_checks =
            stats::counter("audit.heap.popChecks");
        pop_checks.inc(audit_pop_checks);
    }
#endif
    // A cut run flushes the work it actually did.
    if (cut)
        sim_stats.runsCut.inc();
    sim_stats.tasks.inc(finished_count);
    sim_stats.events.inc(events_processed);
    sim_stats.heapPushes.inc(heap_pushes);
    sim_stats.heapPops.inc(heap_pops);
    for (size_t li = 0; li < result.linkBusyMs.size(); ++li)
        sim_stats.linkBusy[li]->add(result.linkBusyMs[li]);
    return !cut;
}

/** The whole run of @p graph, with its trace when @p record_trace. */
SimResult
simulateAll(const TaskGraph &graph, bool record_trace)
{
    SimResult result;
    if (record_trace)
        result.trace.resize(graph.tasks().size());
    simulate(graph, std::numeric_limits<double>::infinity(), record_trace,
             result);
    return result;
}

/** The run of @p graph if its makespan is below @p cutoff. */
std::optional<SimResult>
simulateBelow(const TaskGraph &graph, double cutoff, bool record_trace)
{
    FSMOE_CHECK_ARG(!std::isnan(cutoff), "makespan cutoff is NaN");
    SimResult result;
    if (record_trace)
        result.trace.resize(graph.tasks().size());
    if (simulate(graph, cutoff, record_trace, result) &&
        result.makespan < cutoff)
        return result;
    return std::nullopt;
}

} // namespace

SimResult
Simulator::run(const TaskGraph &graph) const
{
    return simulateAll(graph, /*record_trace=*/true);
}

SimResult
Simulator::price(const TaskGraph &graph) const
{
    return simulateAll(graph, /*record_trace=*/false);
}

double
Simulator::makespanBelow(const TaskGraph &graph, double cutoff) const
{
    const std::optional<SimResult> result = priceBelow(graph, cutoff);
    return result ? result->makespan
                  : std::numeric_limits<double>::infinity();
}

std::optional<SimResult>
Simulator::priceBelow(const TaskGraph &graph, double cutoff) const
{
    return simulateBelow(graph, cutoff, /*record_trace=*/false);
}

std::optional<SimResult>
Simulator::runBelow(const TaskGraph &graph, double cutoff) const
{
    return simulateBelow(graph, cutoff, /*record_trace=*/true);
}

double
Simulator::sumLowerBound(double sum, size_t n)
{
    // Exact in binary64 for n < 2^51: 4(n+1) is an integer and
    // 1 - m 2^-53 is representable for m 2^-53 <= 1/2.
    return sum * (1.0 - 4.0 * (static_cast<double>(n) + 1.0) * 0x1p-53);
}

double
Simulator::makespanLowerBound(const DurationTally &tally, size_t lane)
{
    const DurationTally::Lane &counted = tally.lane(lane);
    const size_t n = counted.size();
    double bound = shrunkLinkSum(counted.releaseBound(), n);
    for (size_t li = 0; li < static_cast<size_t>(Link::NumLinks); ++li)
        bound = std::max(
            bound,
            sumLowerBound(counted.linkDurationSum(static_cast<Link>(li)), n));
    return bound;
}

double
Simulator::makespanLowerBound(const TaskGraph &graph)
{
    double bound = 0.0;
    for (size_t li = 0; li < static_cast<size_t>(Link::NumLinks); ++li)
        bound = std::max(bound, sumLowerBound(graph.linkDurationSum(
                                                  static_cast<Link>(li)),
                                              graph.size()));
    return bound;
}

std::string
Simulator::gantt(const TaskGraph &graph, const SimResult &result, int columns)
{
    FSMOE_CHECK_ARG(columns >= 10, "gantt needs at least 10 columns");
    std::ostringstream oss;
    double span = std::max(result.makespan, 1e-9);
    for (int s = 0; s < graph.numStreams(); ++s) {
        std::string row(columns, '.');
        for (const Task &t : graph.tasks()) {
            if (t.stream != s || t.duration <= 0.0)
                continue;
            const TaskTrace &tr = result.trace[t.id];
            // Truncate both ends consistently, clamp into the axis,
            // and force c1 >= c0 so every executed task renders at
            // least one cell (a task starting at the makespan lands
            // in the last column instead of vanishing).
            int c0 = static_cast<int>(tr.start / span * (columns - 1));
            int c1 = static_cast<int>(tr.finish / span * (columns - 1));
            c0 = std::clamp(c0, 0, columns - 1);
            c1 = std::clamp(c1, c0, columns - 1);
            for (int c = c0; c <= c1; ++c)
                row[c] = t.label.glyph();
        }
        oss << "stream " << s << " |" << row << "|\n";
    }
    oss << "makespan " << result.makespan << " ms\n";
    return oss.str();
}

} // namespace fsmoe::sim
