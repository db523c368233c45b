/**
 * @file
 * Task DAG representation consumed by the cluster simulator.
 *
 * A schedule (paper Fig. 3) is a set of tasks, each bound to a
 * *physical link* (exclusive hardware resource: inter-node NIC,
 * intra-node fabric, or GPU compute) and a *stream* (a FIFO issue
 * queue, the software-visible CUDA-stream analogue). Dependencies
 * express data flow, e.g. expert(i) needs ESP-AllGather(i).
 *
 * The representation is allocation-light by design: sweeps build and
 * simulate millions of short-lived graphs, so the per-task cost must
 * not include heap traffic. Tasks are PODs in one contiguous vector,
 * dependency lists live in a single flat pool addressed CSR-style by
 * (offset, count), and labels are lazy — a TaskLabel is a pointer to a
 * static string plus an optional numeric suffix, materialised into a
 * std::string only when a trace/gantt/Chrome exporter actually asks
 * for the name (see docs/PERFORMANCE.md).
 */
#ifndef FSMOE_SIM_TASK_GRAPH_H
#define FSMOE_SIM_TASK_GRAPH_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "base/fp_contract.h"
#include "base/logging.h"

namespace fsmoe::sim {

/** Operation classes, matching the paper's Table 2 breakdown rows. */
enum class OpType
{
    AlltoAll,      ///< EP dispatch/combine (inter-node).
    GradAllReduce, ///< DP gradient synchronisation (inter-node).
    AllGather,     ///< ESP-AllGather (intra-node).
    ReduceScatter, ///< ESP-ReduceScatter / MP (intra-node).
    Experts,       ///< Expert FFN compute.
    Routing,       ///< Gating function compute.
    Order,         ///< (I-)Ordering layout transform.
    Attention,     ///< Attention / other dense compute.
    Other,         ///< Anything else (residual dense parts).
    NumOpTypes
};

/** Short printable name of an OpType. */
const char *opTypeName(OpType t);

/** Physical exclusive resources a task can occupy. */
enum class Link
{
    InterNode, ///< NIC / InfiniBand path between nodes.
    IntraNode, ///< NVLink / shared-memory path inside a node.
    Compute,   ///< The GPU's SMs.
    NumLinks
};

/** Identifier of a task inside one TaskGraph. */
using TaskId = int32_t;

/**
 * Lazy task label: a static base string plus an optional decimal
 * suffix, e.g. {"d", 3} names the task "d3". Building a graph never
 * allocates or formats the name — str() does, and only the trace,
 * gantt, and Chrome exporters call it.
 *
 * @p base must outlive the graph; pass string literals (what all
 * builders do). The implicit const char* conversion keeps
 * addTask("routing", ...) call sites reading naturally.
 */
struct TaskLabel
{
    const char *base = ""; ///< Static-storage label text.
    int32_t index = -1;    ///< Decimal suffix appended when >= 0.

    TaskLabel() = default;
    TaskLabel(const char *b) : base(b) {} // NOLINT: implicit by design
    TaskLabel(const char *b, int32_t i) : base(b), index(i) {}

    /** Materialise the full name (allocates; exporter-only path). */
    std::string str() const
    {
        return index >= 0 ? base + std::to_string(index) : base;
    }

    /** First character, for the ASCII gantt ('#' when empty). */
    char glyph() const { return base[0] == '\0' ? '#' : base[0]; }
};

/**
 * One schedulable unit of work. Dependencies are not stored inline —
 * they live in the owning TaskGraph's flat pool; use TaskGraph::deps().
 */
struct Task
{
    TaskId id = -1;
    OpType op = OpType::Other;
    Link link = Link::Compute;
    int stream = 0;          ///< FIFO issue queue index.
    int priority = 0;        ///< Link arbitration class; higher values
                             ///< yield to lower ones (background
                             ///< traffic such as gradient AllReduce).
    double duration = 0.0;   ///< Service time in milliseconds.
    TaskLabel label;         ///< Lazy trace label.
    uint32_t depBegin = 0;   ///< Offset into the graph's dep pool.
    uint32_t depCount = 0;   ///< Number of dependencies.

    /** Materialised trace label (allocates; exporter-only path). */
    std::string name() const { return label.str(); }
};

/** Non-owning view of one task's dependency list. */
class DepSpan
{
  public:
    DepSpan(const TaskId *data, size_t size) : data_(data), size_(size) {}

    const TaskId *begin() const { return data_; }
    const TaskId *end() const { return data_ + size_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    TaskId operator[](size_t i) const { return data_[i]; }

  private:
    const TaskId *data_;
    size_t size_;
};

/**
 * The addTask overloads and checks of both task sinks, TaskGraph and
 * DurationTally, through @p Sink's addTaskWithDeps.
 */
template <typename Sink>
class TaskSink
{
  public:
    /**
     * Append a task.
     *
     * @param label    Lazy trace label (base must be a static string).
     * @param op       Operation class (for per-op accounting).
     * @param link     Physical resource the task occupies.
     * @param stream   FIFO issue queue.
     * @param duration Service time in milliseconds (>= 0).
     * @param deps     Prerequisite task ids (must already exist).
     * @param priority Arbitration class; tasks with larger values
     *                 yield the link to concurrently-ready tasks with
     *                 smaller values.
     * @return         Id of the new task.
     */
    TaskId addTask(TaskLabel label, OpType op, Link link, int stream,
                   double duration, std::initializer_list<TaskId> deps = {},
                   int priority = 0)
    {
        const TaskId *d = deps.begin();
        return static_cast<Sink *>(this)->addTaskWithDeps(
            label, op, link, stream, duration, deps.size(),
            [d](size_t i) { return d[i]; }, priority);
    }

    /** Overload for dynamically built dependency lists. */
    TaskId addTask(TaskLabel label, OpType op, Link link, int stream,
                   double duration, const std::vector<TaskId> &deps,
                   int priority = 0)
    {
        const TaskId *d = deps.data();
        return static_cast<Sink *>(this)->addTaskWithDeps(
            label, op, link, stream, duration, deps.size(),
            [d](size_t i) { return d[i]; }, priority);
    }

  protected:
    /** addTask's checks: duration, stream >= 0; deps earlier than @p id. */
    template <typename DepAt>
    static bool validTask(TaskId id, int stream, double duration,
                          size_t n_deps, DepAt dep_at)
    {
        bool valid = duration >= 0.0 && stream >= 0;
        for (size_t i = 0; valid && i < n_deps; ++i) {
            const TaskId d = dep_at(i);
            valid = d >= 0 && d < id;
        }
        return valid;
    }

  private:
    friend Sink; // Only a sink constructs its base.
    TaskSink() = default;
};

/**
 * An append-only DAG of tasks. Issue order *within a stream* is the
 * order of addTask calls, mirroring how a runtime enqueues kernels.
 */
class TaskGraph : public TaskSink<TaskGraph>
{
  public:
    /**
     * Overload for computed dependency lists: the task's i-th
     * dependency is dep_at(i), for i < @p n_deps, so a builder can
     * emit e.g. every fourth id without materialising the list.
     * dep_at must be pure; it may be called more than once per index.
     * The checks are those of the other overloads; an invalid task
     * goes to the out-of-line rejectTask(), which reports it.
     */
    template <typename DepAt>
    TaskId addTaskWithDeps(TaskLabel label, OpType op, Link link,
                           int stream, double duration, size_t n_deps,
                           DepAt dep_at, int priority = 0)
    {
        const TaskId id = static_cast<TaskId>(size());
        if (!validTask(id, stream, duration, n_deps, dep_at)) {
            std::vector<TaskId> deps(n_deps);
            for (size_t i = 0; i < n_deps; ++i)
                deps[i] = dep_at(i);
            rejectTask(label, stream, duration, deps);
        }
        num_streams_ = std::max(num_streams_, stream + 1);
        link_sums_[static_cast<size_t>(link)] += duration;
        tasks_.push_back({id, op, link, stream, priority, duration, label,
                          static_cast<uint32_t>(dep_pool_.size()),
                          static_cast<uint32_t>(n_deps)});
        for (size_t i = 0; i < n_deps; ++i)
            dep_pool_.push_back(dep_at(i));
        return id;
    }

    /**
     * Pre-size the task vector and dependency pool. Call once per
     * build with (over-)estimates; repeated exact-fit reserves would
     * degrade push_back growth to quadratic copying.
     */
    void reserve(size_t tasks, size_t deps)
    {
        tasks_.reserve(tasks);
        dep_pool_.reserve(deps);
    }

    const std::vector<Task> &tasks() const { return tasks_; }
    const Task &task(TaskId id) const;

    /** The dependency list of @p id (view into the flat pool). */
    DepSpan deps(TaskId id) const
    {
        const Task &t = task(id);
        return {dep_pool_.data() + t.depBegin, t.depCount};
    }

    /** Materialised label of @p id (allocates; exporter-only path). */
    std::string taskName(TaskId id) const { return task(id).name(); }

    /** Number of tasks added. */
    size_t size() const { return tasks_.size(); }
    bool empty() const { return size() == 0; }

    /** Total dependency-edge count across all tasks. */
    size_t numDeps() const { return dep_pool_.size(); }

    /** The flat CSR dependency pool (audit and exporter use). */
    const std::vector<TaskId> &depPool() const { return dep_pool_; }

    /** Highest stream index used plus one. */
    int numStreams() const { return num_streams_; }

    /**
     * Sum of the durations of every task on @p link, the left fold in
     * id order. The simulator runs a link's tasks one after another,
     * which makes this (with a rounding margin, see
     * Simulator::makespanLowerBound) a lower bound on the makespan.
     */
    double linkDurationSum(Link link) const
    {
        return link_sums_[static_cast<size_t>(link)];
    }

  private:
    /** Fails with the message for the first invalid argument. */
    [[noreturn]] void rejectTask(TaskLabel label, int stream,
                                 double duration,
                                 const std::vector<TaskId> &deps) const;

    std::vector<Task> tasks_;
    std::vector<TaskId> dep_pool_; ///< All tasks' deps, CSR-flattened.
    int num_streams_ = 0;
    std::array<double, static_cast<size_t>(Link::NumLinks)> link_sums_{};
};

/**
 * A task sink that keeps no tasks but counts them in lanes, to bound
 * makespans without building graphs. A lane keeps the size(),
 * numStreams() and link sums a TaskGraph fed the same calls would, and
 * a release-date bound (Lane::releaseBound()). A tally that a schedule
 * emits at degree r has lane i count its graph at degree r + i, so the
 * degree search bounds every candidate in one walk; the ids it hands
 * back number the first lane's tasks. A tally never fails: a task that
 * TaskGraph::addTask rejects marks every lane rejected (reject()).
 */
class DurationTally : public TaskSink<DurationTally>
{
  public:
    /** What a tally counts of the graph at one degree (see above). */
    class Lane
    {
      public:
        /** Number of tasks counted. */
        size_t size() const { return count_; }

        /** Highest stream index counted plus one. */
        int numStreams() const { return num_streams_; }

        /** See TaskGraph::linkDurationSum(). */
        double linkDurationSum(Link link) const
        {
            return link_sums_[static_cast<size_t>(link)];
        }

        /**
         * Count @p n tasks on streams below @p streams: size() and
         * numStreams() as n addTask calls would leave them. Unchecked,
         * like addWork(): a schedule builder counts into a lane only
         * tasks it checked.
         */
        void addTasks(size_t n, int streams)
        {
            count_ += n;
            num_streams_ = std::max(num_streams_, streams);
        }

        /**
         * Add @p work to @p link's duration sum as one term of its
         * fold: fl(n * duration) for n tasks of one duration. So a
         * lane's sum may group a graph's durations differently and
         * differ from TaskGraph::linkDurationSum() in the last bits;
         * Simulator::makespanLowerBound's margin covers both.
         */
        void addWork(Link link, double work)
        {
            link_sums_[static_cast<size_t>(link)] += work;
        }

        /**
         * A lower bound on when task @p id finishes, as the lane's
         * release-date bookkeeping knows it: the chain head's (chain())
         * or the last task added through addTask, and 0 for any other
         * id. Every value is a rounded sum of the durations of tasks
         * that run one after another and end with @p id (see
         * releaseBound()).
         */
        double finish(TaskId id) const
        {
            if (id < 0)
                return 0.0;
            if (id == head_.id)
                return head_.finish;
            return id == last_.id ? last_.finish : 0.0;
        }

        /**
         * Make @p id, which finishes no earlier than @p finish, the head
         * of the lane's compute chain: the next phase appended after it
         * starts from @p finish.
         */
        void chain(TaskId id, double finish)
        {
            head_ = {id, finish};
            bound_ = std::max(bound_, finish);
        }

        /**
         * Fold @p work on @p link, none of which can start before
         * @p release, into the lane's release bound. Per link the lane
         * keeps the work folded so far, P, and M, the largest release
         * minus the P before it: while releases do not decrease, the
         * link ends no earlier than P + M, the largest over releases of
         * one release plus the work released at or after it. A release
         * below the previous one closes that run into the bound and
         * starts a new one.
         */
        void release(Link link, double release, double work)
        {
            ReleaseRun &run = runs_[static_cast<size_t>(link)];
            if (release != run.release) {
                // At an unchanged release, M cannot grow.
                if (release < run.release) {
                    bound_ = std::max(bound_, run.work + run.slack);
                    run = ReleaseRun{};
                }
                run.release = release;
                run.slack = std::max(run.slack, release - run.work);
            }
            run.work += work;
        }

        /**
         * The lane's release-date bound, before any rounding margin:
         * the largest of its chain finishes and of its links' P + M
         * (release()). Simulator::makespanLowerBound shrinks it into a
         * proven bound.
         */
        double releaseBound() const
        {
            double bound = bound_;
            for (const ReleaseRun &run : runs_)
                bound = std::max(bound, run.work + run.slack);
            return bound;
        }

        /**
         * Mark the lane's graph as one TaskGraph::addTask would reject
         * at its degree, for a builder that finds a task invalid in this
         * lane only. The lane's counts are then meaningless; whoever
         * walked the tally emits that degree into a TaskGraph, which
         * rejects it with addTask's message.
         */
        void reject() { rejected_ = true; }

        /** True once reject() was called. */
        bool rejected() const { return rejected_; }

      private:
        friend class DurationTally;

        /** A task id with a lower bound on its finish (finish()). */
        struct KnownFinish
        {
            TaskId id = -1;
            double finish = 0.0;
        };
        /** One link's run of non-decreasing releases (release()). */
        struct ReleaseRun
        {
            static constexpr double kNone =
                -std::numeric_limits<double>::infinity();
            double work = 0.0;      ///< P, the work folded so far.
            double slack = kNone;   ///< M, the largest release minus its P.
            double release = kNone; ///< The latest release.
        };

        size_t count_ = 0;
        int num_streams_ = 0;
        bool rejected_ = false;
        std::array<double, static_cast<size_t>(Link::NumLinks)> link_sums_{};
        KnownFinish head_;   ///< The compute chain's last task.
        KnownFinish last_;   ///< The last task added through addTask.
        double bound_ = 0.0; ///< Chain finishes and closed runs.
        std::array<ReleaseRun, static_cast<size_t>(Link::NumLinks)> runs_{};
    };

    /** A tally of @p lanes (>= 1) lanes. */
    explicit DurationTally(size_t lanes = 1)
    {
        FSMOE_CHECK_ARG(lanes >= 1, "a duration tally needs a lane");
        more_lanes_.resize(lanes - 1);
    }

    /**
     * Fold the task into every lane: its count, stream and link sum,
     * and, released at its deps' largest Lane::finish(), the release
     * bound; it becomes the last task whose finish the lane knows.
     */
    template <typename DepAt>
    TaskId addTaskWithDeps(TaskLabel, OpType, Link link, int stream,
                           double duration, size_t n_deps, DepAt dep_at,
                           int = 0)
    {
        const TaskId id = static_cast<TaskId>(size());
        if (!validTask(id, stream, duration, n_deps, dep_at))
            reject();
        forEachLane([&](Lane &lane) {
            lane.addTasks(1, stream + 1);
            lane.addWork(link, duration);
            double release = 0.0;
            for (size_t i = 0; i < n_deps; ++i)
                release = std::max(release, lane.finish(dep_at(i)));
            lane.release(link, release, duration);
            lane.last_ = {id, release + duration};
        });
        return id;
    }

    /** Mark every lane rejected (Lane::reject()). */
    void reject()
    {
        forEachLane([](Lane &lane) { lane.reject(); });
    }

    size_t numLanes() const { return 1 + more_lanes_.size(); }

    /** Number of ids handed back: the first lane's size(). */
    size_t size() const { return first_lane_.size(); }

    /** Lane @p i (< numLanes()). */
    const Lane &lane(size_t i) const
    {
        FSMOE_CHECK_ARG(i < numLanes(), "lane ", i, " of ", numLanes());
        return i == 0 ? first_lane_ : more_lanes_[i - 1];
    }

    /** Lane @p i, for a builder to count into. */
    Lane &lane(size_t i)
    {
        return const_cast<Lane &>(std::as_const(*this).lane(i));
    }

  private:
    /** Call @p f on every lane, first to last. */
    template <typename F>
    void forEachLane(F f)
    {
        f(first_lane_);
        for (Lane &lane : more_lanes_)
            f(lane);
    }

    Lane first_lane_;              ///< Kept inline: most tallies have one.
    std::vector<Lane> more_lanes_; ///< The lanes after the first.
};

/**
 * Structural audit of a built graph (see base/audit.h): task ids are
 * dense and in order, every CSR dep span lies inside the pool, every
 * dependency edge points to an *earlier* task (which is the graph's
 * acyclicity invariant — issue order is a topological order), stream
 * indices are within [0, numStreams), durations are finite and
 * non-negative. Panics on the first violation; bumps the
 * "audit.taskGraph.verified" counter on success. O(tasks + deps).
 *
 * Call through FSMOE_AUDIT(auditTaskGraph(g)) so Release builds pay
 * nothing.
 */
void auditTaskGraph(const TaskGraph &g);

/**
 * Raw-span core of auditTaskGraph. Exposed separately because the
 * TaskGraph builder API cannot produce an invalid graph, so tests
 * exercise the audit's failure paths by handing it deliberately
 * corrupted task/pool arrays.
 */
void auditTasksAndDeps(const Task *tasks, size_t num_tasks,
                       const TaskId *dep_pool, size_t pool_size,
                       int num_streams);

} // namespace fsmoe::sim

#endif // FSMOE_SIM_TASK_GRAPH_H
