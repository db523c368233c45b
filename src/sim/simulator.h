/**
 * @file
 * Discrete-event executor for schedule task graphs.
 *
 * Execution rules (paper §4's implicit machine model):
 *   1. A task may start only when every dependency has finished.
 *   2. Tasks on the same stream start in issue order (FIFO), like
 *      kernels on a CUDA stream.
 *   3. Each physical link (inter-node NIC, intra-node fabric, GPU
 *      compute) runs at most one task at a time — in particular two
 *      inter-node collectives (AlltoAll and Gradient-AllReduce) never
 *      overlap, which is the contention rule FSMoE's schedule is
 *      designed around.
 *   4. Among simultaneously eligible tasks competing for a free link,
 *      arbitration is by the key (priority class, readiness time,
 *      issue id), smallest first: background traffic (larger priority
 *      values) yields, then the task that became ready earliest wins,
 *      then issue order breaks exact ties. This total order makes
 *      simulation deterministic — bit-identical across runs, thread
 *      counts, and processes (see docs/PERFORMANCE.md for the full
 *      determinism contract).
 *
 * Complexity: O((n + e) log n) for n tasks and e dependency edges.
 * Eligibility is maintained incrementally in per-link heaps ordered by
 * the arbitration key — a completion event touches only the finished
 * task's dependents and the freed streams' new heads, never the whole
 * stream set (the pre-optimisation loop rescanned every stream for
 * every link on every event, O(events x links x streams); it survives
 * as the reference implementation in tests/sim_reference.h and is the
 * baseline bench_micro's BM_SimulatorVsReference measures against).
 */
#ifndef FSMOE_SIM_SIMULATOR_H
#define FSMOE_SIM_SIMULATOR_H

#include <array>
#include <string>
#include <vector>

#include "sim/task_graph.h"

namespace fsmoe::sim {

/** Start/finish record for one executed task. */
struct TaskTrace
{
    TaskId id = -1;
    double start = 0.0;
    double finish = 0.0;
};

/** Result of simulating one task graph. */
struct SimResult
{
    /// Completion time of the last task, in milliseconds.
    double makespan = 0.0;
    /// Per-task timing in task-id order.
    std::vector<TaskTrace> trace;
    /// Total busy milliseconds per operation class.
    std::array<double, static_cast<size_t>(OpType::NumOpTypes)> opTime{};
    /// Total busy milliseconds per physical link (feeds the per-link
    /// utilization analytics in sim/run_report.h and the optional
    /// result-store columns).
    std::array<double, static_cast<size_t>(Link::NumLinks)> linkBusyMs{};

    /** Busy time accumulated by tasks of class @p t. */
    double timeOf(OpType t) const
    {
        return opTime[static_cast<size_t>(t)];
    }

    /** Busy time accumulated on link @p l. */
    double busyOf(Link l) const
    {
        return linkBusyMs[static_cast<size_t>(l)];
    }
};

/**
 * The discrete-event engine. Stateless between runs; safe to reuse.
 */
class Simulator
{
  public:
    /** Execute @p graph to completion and return the timing. */
    SimResult run(const TaskGraph &graph) const;

    /**
     * The makespan of @p graph when it is below @p cutoff, else +inf.
     * Runs run()'s event loop, recording no per-task trace, and stops
     * as soon as the answer is known to be >= @p cutoff: before the
     * first event when makespanLowerBound(graph) >= @p cutoff, or at
     * the first popped completion event whose time is >= @p cutoff
     * (events pop in time order and the makespan is the last one). A
     * returned value below the cutoff is bit-identical to
     * run(graph).makespan; run() is this loop with cutoff = +inf.
     */
    double makespanBelow(const TaskGraph &graph, double cutoff) const;

    /**
     * A proven lower bound on run(graph).makespan, computed from the
     * graph's per-link duration sums alone, so it holds for a
     * TaskGraph::durationTally() as well as for a built graph: the
     * largest linkDurationSum() times (1 - 4(n+1) 2^-53) for n tasks.
     *
     * Why the margin is sound: a link runs one task at a time, each
     * starting no earlier than the previous one finished, and rounding
     * is monotone, so the link's last finish is >= the rounded left
     * fold of its durations in *start* order. That fold and the id-
     * order fold linkDurationSum() keeps are both within gamma_n =
     * n u / (1 - n u) (u = 2^-53) of the exact sum of the same
     * non-negative terms, so they differ by a factor of at most
     * 1 - 2 gamma_n >= 1 - 4 n u; the extra 4u covers the rounding of
     * the product itself.
     */
    static double makespanLowerBound(const TaskGraph &graph);

    /**
     * Render an ASCII Gantt chart of a simulated run, one row per
     * stream, for debugging and the schedule_explorer example.
     *
     * @param graph   The graph that was simulated.
     * @param result  Output of run() on the same graph.
     * @param columns Character width of the time axis.
     */
    static std::string gantt(const TaskGraph &graph, const SimResult &result,
                             int columns = 100);
};

} // namespace fsmoe::sim

#endif // FSMOE_SIM_SIMULATOR_H
