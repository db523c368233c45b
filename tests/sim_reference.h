/**
 * @file
 * The retained naive reference simulator.
 *
 * This is the pre-optimisation Simulator::run inner loop, verbatim in
 * behaviour: on every completion event it rescans all streams for
 * every link — O(events x links x streams) — picking, per free link,
 * the eligible stream head with the smallest (priority, readyTime,
 * issue id) key. The production simulator (src/sim/simulator.cc)
 * replaced the rescan with incrementally maintained per-link heaps and
 * must stay *bit-identical* to this loop: tests/sim_fuzz_test.cc
 * checks makespan, per-op times, and full traces on randomized DAGs,
 * and bench_micro's BM_SimulatorVsReference measures the speedup
 * against it.
 *
 * Keep this file dumb and obviously correct; it is the oracle.
 */
#ifndef FSMOE_TESTS_SIM_REFERENCE_H
#define FSMOE_TESTS_SIM_REFERENCE_H

#include <algorithm>
#include <array>
#include <limits>
#include <queue>
#include <vector>

#include "sim/simulator.h"
#include "sim/task_graph.h"

namespace fsmoe::sim {

/** Naive-scan discrete-event execution of @p graph. */
inline SimResult
referenceRun(const TaskGraph &graph)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();

    struct TaskState
    {
        int pendingDeps = 0;
        double readyTime = 0.0;
        bool finished = false;
    };

    const auto &tasks = graph.tasks();
    const size_t n = tasks.size();
    SimResult result;
    result.trace.resize(n);
    if (n == 0)
        return result;

    std::vector<TaskState> state(n);
    std::vector<std::vector<TaskId>> dependents(n);
    for (const Task &t : tasks) {
        state[t.id].pendingDeps = static_cast<int>(graph.deps(t.id).size());
        for (TaskId d : graph.deps(t.id))
            dependents[d].push_back(t.id);
    }

    // Per-stream FIFO issue queues in addTask order.
    std::vector<std::vector<TaskId>> streams(graph.numStreams());
    for (const Task &t : tasks)
        streams[t.stream].push_back(t.id);
    std::vector<size_t> head(graph.numStreams(), 0);

    std::array<double, static_cast<size_t>(Link::NumLinks)> link_free{};
    link_free.fill(0.0);

    using Event = std::pair<double, TaskId>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;

    size_t finished_count = 0;
    double now = 0.0;

    auto try_start = [&]() {
        bool progressed = true;
        while (progressed) {
            progressed = false;
            for (size_t li = 0; li < link_free.size(); ++li) {
                if (link_free[li] > now)
                    continue;
                // Eligible = head of its stream, deps done, wants link
                // li; pick the smallest (priority, readyTime, id).
                TaskId best = -1;
                double best_ready = kInf;
                int best_prio = std::numeric_limits<int>::max();
                for (int s = 0; s < graph.numStreams(); ++s) {
                    if (head[s] >= streams[s].size())
                        continue;
                    TaskId id = streams[s][head[s]];
                    const Task &t = tasks[id];
                    if (static_cast<size_t>(t.link) != li)
                        continue;
                    const TaskState &st = state[id];
                    if (st.pendingDeps > 0 || st.readyTime > now)
                        continue;
                    bool better =
                        t.priority < best_prio ||
                        (t.priority == best_prio &&
                         (st.readyTime < best_ready ||
                          (st.readyTime == best_ready &&
                           (best == -1 || id < best))));
                    if (better) {
                        best_prio = t.priority;
                        best_ready = st.readyTime;
                        best = id;
                    }
                }
                if (best < 0)
                    continue;
                const Task &t = tasks[best];
                double finish = now + t.duration;
                result.trace[best] = {best, now, finish};
                link_free[li] = finish;
                head[t.stream]++;
                events.emplace(finish, best);
                progressed = true;
            }
        }
    };

    try_start();
    while (finished_count < n) {
        if (events.empty())
            return result; // deadlocked input; caller asserts coverage
        auto [t_now, id] = events.top();
        events.pop();
        now = t_now;
        if (state[id].finished)
            continue;
        state[id].finished = true;
        finished_count++;
        result.opTime[static_cast<size_t>(tasks[id].op)] +=
            tasks[id].duration;
        result.makespan = std::max(result.makespan, t_now);
        for (TaskId dep : dependents[id]) {
            TaskState &ds = state[dep];
            ds.pendingDeps--;
            ds.readyTime = std::max(ds.readyTime, t_now);
        }
        try_start();
    }
    return result;
}

} // namespace fsmoe::sim

#endif // FSMOE_TESTS_SIM_REFERENCE_H
