#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <sstream>

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
 * The inner loop maintains per-link binary heaps of *issuable*
 * candidates — stream heads whose dependencies have all finished —
 * ordered by the arbitration key (priority, readyTime, issue id).
 * When a task finishes, only its dependents are examined; when a task
 * starts, only the new head of its stream is. That replaces the naive
 * O(links x streams) rescan per event with O(log n) heap maintenance
 * while reproducing the naive scan's choices bit-exactly (the fuzz
 * test in tests/sim_fuzz_test.cc checks this against the retained
 * reference implementation in tests/sim_reference.h).
 *
 * Why every heap entry is eligible *now*: a task's readyTime is the
 * max finish time over its dependencies, which is fixed by the time
 * the last dependency completes — an event at or before the current
 * clock. A task enters a heap only once it is the head of its stream
 * with zero pending dependencies, so readyTime <= now holds at
 * insertion and forever after (the clock never rewinds). The naive
 * scan's `readyTime > now` filter is therefore vacuous, and the heap
 * minimum *is* the task the scan would have picked.
 */

namespace {

/**
 * The event loop behind run(), makespanBelow() and runBelow().
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

    const auto &tasks = graph.tasks();
    const size_t n = tasks.size();
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
#if FSMOE_AUDIT_ENABLED
    uint64_t audit_pop_checks = 0;
    const bool audit_on = audit::enabled();
#endif

    // Mutable per-task state, flat (one allocation each, not per task).
    std::vector<int32_t> pending(n);
    std::vector<double> ready(n, 0.0);
    std::vector<uint8_t> finished(n, 0);

    // Reverse CSR (the dependents of each task) and stream CSR (each
    // stream's FIFO issue queue, in addTask order), built by one
    // counting pass and one fill pass over the tasks and the flat
    // dependency pool; head[s] is an absolute cursor into str_tasks.
    const TaskId *dep_pool = graph.depPool().data();
    const int num_streams = graph.numStreams();
    std::vector<uint32_t> rev_off(n + 1, 0);
    std::vector<uint32_t> str_off(num_streams + 1, 0);
    for (const Task &t : tasks) {
        pending[t.id] = static_cast<int32_t>(t.depCount);
        for (uint32_t j = t.depBegin; j < t.depBegin + t.depCount; ++j)
            rev_off[static_cast<size_t>(dep_pool[j]) + 1]++;
        str_off[t.stream + 1]++;
    }
    for (size_t i = 0; i < n; ++i)
        rev_off[i + 1] += rev_off[i];
    for (int s = 0; s < num_streams; ++s)
        str_off[s + 1] += str_off[s];
    std::vector<TaskId> rev(graph.numDeps());
    std::vector<TaskId> str_tasks(n);
    std::vector<uint32_t> head(str_off.begin(), str_off.end() - 1);
    {
        std::vector<uint32_t> cursor(rev_off.begin(), rev_off.end() - 1);
        for (const Task &t : tasks) {
            for (uint32_t j = t.depBegin; j < t.depBegin + t.depCount; ++j)
                rev[cursor[dep_pool[j]]++] = t.id;
            str_tasks[head[t.stream]++] = t.id;
        }
    }
    std::copy(str_off.begin(), str_off.end() - 1, head.begin());

    // Per-link candidate heaps. Entries carry their full arbitration
    // key so comparisons never chase back into the task array, and
    // std::push_heap keeps the *largest* element at the front, so the
    // comparator inverts the key: smallest (priority, readyTime, id)
    // wins the link.
    struct Cand
    {
        double ready;
        int32_t priority;
        TaskId id;
    };
    auto heap_after = [](const Cand &a, const Cand &b) {
        if (a.priority != b.priority)
            return a.priority > b.priority;
        if (a.ready != b.ready)
            return a.ready > b.ready;
        return a.id > b.id;
    };
    std::array<std::vector<Cand>, static_cast<size_t>(Link::NumLinks)>
        cands;
    auto push_cand = [&](TaskId id) {
        const Task &t = tasks[id];
        auto &h = cands[static_cast<size_t>(t.link)];
        h.push_back({ready[id], t.priority, id});
        std::push_heap(h.begin(), h.end(), heap_after);
        ++heap_pushes;
    };

    // A task is issuable iff it is its stream's current head and has
    // no pending dependencies; it enters its link's heap exactly once,
    // at whichever of the two conditions becomes true last.
    auto push_if_issuable_head = [&](int s) {
        if (head[s] < str_off[s + 1]) {
            TaskId id = str_tasks[head[s]];
            if (pending[id] == 0)
                push_cand(id);
        }
    };
    for (int s = 0; s < num_streams; ++s)
        push_if_issuable_head(s);

    std::array<double, static_cast<size_t>(Link::NumLinks)> link_free{};
    link_free.fill(0.0);

    // Completion events ordered by (time, issue id).
    using Event = std::pair<double, TaskId>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;

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
        auto &h = cands[li];
        if (h.empty())
            return false;
        std::pop_heap(h.begin(), h.end(), heap_after);
        TaskId id = h.back().id;
        h.pop_back();
        ++heap_pops;
        const Task &t = tasks[id];
#if FSMOE_AUDIT_ENABLED
        // Ready-heap invariants: whatever wins a link must be an
        // unfinished stream head with no pending deps, eligible *now*,
        // on a link that is actually free (the header comment's "every
        // heap entry is eligible now" argument, checked live).
        if (audit_on) {
            if (finished[id])
                FSMOE_PANIC("heap audit: popped finished task ", id);
            if (pending[id] != 0)
                FSMOE_PANIC("heap audit: popped task ", id, " with ",
                            pending[id], " pending dependencies");
            if (static_cast<size_t>(t.link) != li)
                FSMOE_PANIC("heap audit: task ", id, " on link ",
                            linkName(t.link),
                            " surfaced in another link's heap");
            if (head[t.stream] >= str_off[t.stream + 1] ||
                str_tasks[head[t.stream]] != id)
                FSMOE_PANIC("heap audit: popped task ", id,
                            " is not the head of stream ", t.stream);
            if (ready[id] > now)
                FSMOE_PANIC("heap audit: popped task ", id,
                            " ready at ", ready[id],
                            " which is after now=", now);
            if (link_free[li] > now)
                FSMOE_PANIC("heap audit: link ", linkName(t.link),
                            " busy until ", link_free[li],
                            " issued a task at now=", now);
            ++audit_pop_checks;
        }
#endif
        double finish = now + t.duration;
        if (record_trace)
            result.trace[id] = {id, now, finish};
        link_free[li] = finish;
        started[li] += t.duration;
        events.emplace(finish, id);
        head[t.stream]++;
        push_if_issuable_head(t.stream);
        return true;
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
                if (link_free[li] > now)
                    continue;
                if (start_best(li))
                    progressed = true;
            }
        }
    };

    bool cut = false;
    try_start();
    while (finished_count < n) {
        FSMOE_ASSERT(!events.empty(),
                     "simulator deadlock: no runnable task; check for "
                     "dependency cycles or stream-order inversions");
        auto [t_now, id] = events.top();
        events.pop();
        ++events_processed;
        if (can_cut && t_now >= cutoff) {
            cut = true;
            break;
        }
        now = t_now;
        if (finished[id])
            continue;
        finished[id] = 1;
        finished_count++;
        result.opTime[static_cast<size_t>(tasks[id].op)] +=
            tasks[id].duration;
        result.linkBusyMs[static_cast<size_t>(tasks[id].link)] +=
            tasks[id].duration;
        result.makespan = std::max(result.makespan, t_now);
        for (uint32_t e = rev_off[id]; e < rev_off[id + 1]; ++e) {
            TaskId dep = rev[e];
            ready[dep] = std::max(ready[dep], t_now);
            if (--pending[dep] == 0) {
                int s = tasks[dep].stream;
                if (head[s] < str_off[s + 1] && str_tasks[head[s]] == dep)
                    push_cand(dep);
            }
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

} // namespace

SimResult
Simulator::run(const TaskGraph &graph) const
{
    SimResult result;
    result.trace.resize(graph.tasks().size());
    simulate(graph, std::numeric_limits<double>::infinity(),
             /*record_trace=*/true, result);
    return result;
}

double
Simulator::makespanBelow(const TaskGraph &graph, double cutoff) const
{
    FSMOE_CHECK_ARG(!std::isnan(cutoff), "makespan cutoff is NaN");
    SimResult result;
    return simulate(graph, cutoff, /*record_trace=*/false, result) &&
                   result.makespan < cutoff
               ? result.makespan
               : std::numeric_limits<double>::infinity();
}

std::optional<SimResult>
Simulator::runBelow(const TaskGraph &graph, double cutoff) const
{
    FSMOE_CHECK_ARG(!std::isnan(cutoff), "makespan cutoff is NaN");
    SimResult result;
    result.trace.resize(graph.tasks().size());
    if (simulate(graph, cutoff, /*record_trace=*/true, result) &&
        result.makespan < cutoff)
        return result;
    return std::nullopt;
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
