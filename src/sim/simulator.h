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
 * Each run first indexes the graph in one pass (each task's dependents
 * and the next task on its stream). Eligibility is then maintained
 * incrementally in per-link candidate sets: an unordered array scanned
 * on pop while small, a heap ordered by the arbitration key beyond
 * that. A completion event touches only the finished task's dependents
 * and the started tasks' stream successors, never the whole stream set
 * (the pre-optimisation loop rescanned every stream for every link on
 * every event, O(events x links x streams); it survives as the
 * reference implementation in tests/sim_reference.h and is the
 * baseline bench_micro's BM_SimulatorVsReference measures against).
 */
#ifndef FSMOE_SIM_SIMULATOR_H
#define FSMOE_SIM_SIMULATOR_H

#include <array>
#include <optional>
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
     * as soon as the answer is known to be >= @p cutoff:
     *   - before the first event, when makespanLowerBound(graph)
     *     reaches @p cutoff;
     *   - at the first popped completion event at or past @p cutoff
     *     (events pop in time order and the makespan is the last one);
     *   - after an event, when some link's remaining work cannot end
     *     before @p cutoff: the link is busy until max(now, its last
     *     start's finish), and the durations it has not started yet
     *     still run on it one at a time (remainingWorkBound()).
     * A returned value below the cutoff is bit-identical to
     * run(graph).makespan; run() is this loop with cutoff = +inf.
     * A NaN cutoff is rejected.
     */
    double makespanBelow(const TaskGraph &graph, double cutoff) const;

    /**
     * run(graph) when its makespan is below @p cutoff, else
     * std::nullopt: makespanBelow() with the per-task trace recorded,
     * for a caller that keeps a winner's whole result. A returned
     * result is bit-identical to run(graph), trace included. A NaN
     * cutoff is rejected.
     */
    std::optional<SimResult> runBelow(const TaskGraph &graph,
                                      double cutoff) const;

    /**
     * A lower bound on the makespan from one link's state mid-run, in
     * a graph of @p n tasks: @p busy_until is max(now, the finish of
     * the link's last started task), @p sum_lo is
     * shrunkLinkSum(linkDurationSum(link), n), and @p started the
     * rounded running sum, in start order, of the durations started on
     * the link so far. Returns
     * sumLowerBound(busy_until + (sum_lo - started), n).
     *
     * Why it is sound, with u = 2^-53 and gamma_n = n u / (1 - n u):
     * the link's unstarted tasks each start at or after busy_until and
     * after the one before them finished, and rounding is monotone, so
     * the link's last finish is at least the rounded fold of
     * busy_until and their durations in start order, which is within
     * gamma_n of busy_until + E, E their exact sum: the exact link sum
     * S minus the exact started sum. The link sum and @p started are
     * folds of at most n non-negative terms, each within gamma_n S of
     * its exact sum, so sum_lo - started <= E: the 8(n+1)u shrink
     * exceeds 2 gamma_n S plus the rounding of its own product. The
     * sumLowerBound factor then covers gamma_n and the roundings of
     * the subtraction, the addition and its own product. A negative
     * difference only lowers the bound below busy_until, which no run
     * finishes before.
     */
    static double remainingWorkBound(double busy_until, double sum_lo,
                                     double started, size_t n)
    {
        return sumLowerBound(busy_until + (sum_lo - started), n);
    }

    /** @p link_sum times (1 - 8(n+1) 2^-53), remainingWorkBound's shrink. */
    static double shrunkLinkSum(double link_sum, size_t n)
    {
        // Exact factor for n < 2^49, as in sumLowerBound.
        return link_sum *
               (1.0 - 8.0 * (static_cast<double>(n) + 1.0) * 0x1p-53);
    }

    /**
     * A proven lower bound on run(graph).makespan for the graph that
     * lane @p lane of @p tally counts: with n that lane's size(), the
     * largest sumLowerBound(linkDurationSum(link), n) over its links,
     * and its releaseBound() shrunk by shrunkLinkSum's factor
     * 1 - 8(n+1)2^-53. A lane reads only its own counts, so its bound
     * has the bits a one-lane tally of its degree gives.
     *
     * Why the release bound is sound, with u = 2^-53 and gamma_n as
     * in remainingWorkBound: each chain finish and release the tally
     * folds is a rounded sum of the durations of distinct tasks that
     * the simulator runs one after another (each starts at or after
     * the previous one's finish), so it is at most (1 + gamma_n) times
     * their exact sum, and the simulated finish is at least
     * (1 - gamma_n) times it. A link's P + M is, for the release rho
     * that attains M, at most rho plus the work released at or after
     * it, up to gamma_n P + 2u(rho + P) for the rounded subtraction and
     * sums; P and rho are both at most P + M itself. Every task of a
     * later group starts at or after (1 - gamma_n)/(1 + gamma_n) rho,
     * since its release is at least rho, and the link runs that work
     * one task at a time. Together the computed value exceeds the
     * makespan by less than a factor 1 + (4n + 3)u + O(n^2 u^2), which
     * the 8(n+1)u shrink covers with room for its own rounding (n well
     * below 2^40). docs/PERFORMANCE.md gives the argument in full.
     */
    static double makespanLowerBound(const DurationTally &tally,
                                     size_t lane = 0);

    /** The link-sum half of the bound above, for a built graph. */
    static double makespanLowerBound(const TaskGraph &graph);

    /**
     * @p sum times (1 - 4(n+1) 2^-53): a lower bound on when the last
     * of n tasks that one link (or one stream) runs one at a time can
     * finish, given any rounded sum of their non-negative durations.
     *
     * Why the margin is sound: each task starts no earlier than the
     * previous one finished, and rounding is monotone, so the last
     * finish is >= the rounded left fold of the durations in *start*
     * order. That fold and @p sum, a fold in any order in which a term
     * may be fl(k t) standing for k equal terms t, are both within
     * gamma_n = n u / (1 - n u) (u = 2^-53) of the exact sum of the
     * same terms, so they differ by a factor of at most
     * 1 - 2 gamma_n >= 1 - 4 n u; the extra 4u covers the rounding of
     * the product itself.
     */
    static double sumLowerBound(double sum, size_t n);

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
