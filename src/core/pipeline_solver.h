/**
 * @file
 * Adaptive pipeline-degree optimisation (paper §4, Algorithm 1).
 *
 * Splitting the MoE layer's input into r chunks pipelines four task
 * types: AlltoAll dispatch/combine (inter-node), ESP-AllGather and
 * ESP-ReduceScatter (intra-node), and expert computation. The paper
 * classifies which resource dominates into four cases via predicates
 * Q1..Q7, derives a closed-form makespan t1..t4 per case, and solves
 * each case's constrained minimisation, returning the best (r, t).
 *
 * The Gradient-AllReduce time t_gar rides the inter-node link inside
 * the MoE pipeline (Fig. 3d): it is zero in the forward phase and
 * supplied by the gradient partitioner (§5) in the backward phase.
 */
#ifndef FSMOE_CORE_PIPELINE_SOLVER_H
#define FSMOE_CORE_PIPELINE_SOLVER_H

#include <vector>

#include "core/moe_config.h"
#include "core/perf_model.h"

namespace fsmoe::core {

/** One task's linear model plus its total volume. */
struct TaskModel
{
    double alpha = 0.0; ///< Startup, ms.
    double beta = 0.0;  ///< ms per unit volume.
    double n = 0.0;     ///< Total volume (bytes or MACs).

    /** Per-chunk time at pipeline degree r (Eq. 1). */
    double chunk(double r) const { return alpha + beta * n / r; }
};

/** Inputs of Algorithm 1 for one MoE layer and one phase. */
struct PipelineProblem
{
    TaskModel a2a; ///< AlltoAll (dispatch; combine is symmetric).
    TaskModel ag;  ///< ESP-AllGather.
    TaskModel rs;  ///< ESP-ReduceScatter.
    TaskModel exp; ///< Expert computation.
    double tGar = 0.0; ///< Gradient-AllReduce time to hide (ms).
    int rMax = 64;     ///< Largest pipeline degree considered.
};

/** Which phase of training a problem describes. */
enum class Phase { Forward, Backward };

/**
 * Build a PipelineProblem from fitted models and a workload.
 * Backward doubles the expert GEMM launches and MAC volume (§4.4);
 * @p t_gar is only meaningful for the backward phase.
 */
PipelineProblem makeProblem(const PerfModelSet &models, const Workload &w,
                            Phase phase, double t_gar = 0.0, int r_max = 64);

/** Output of the solver. */
struct PipelineSolution
{
    double rContinuous = 1.0; ///< Optimum of the paper's continuous solve.
    int r = 1;                ///< Integer pipeline degree actually used.
    double tMoe = 0.0;        ///< Predicted MoE-layer time at r (ms).
    int caseId = 0;           ///< Which of the four cases held at r (1-4).
    double tOlpMoe = 0.0;     ///< Overlappable time inside the pipeline
                              ///< (§5.2), evaluated at r with t_gar = 0.
};

/**
 * The t_gar-independent half of the case analysis at one degree.
 * Predicates Q1..Q3 involve no t_gar; they select which of Q4..Q7
 * decides case 1, and each of those compares t_gar with a right-hand
 * side that involves no t_gar either.
 */
struct CaseSplit
{
    double threshold = 0.0; ///< Right-hand side of the deciding Q4..Q7.
    int otherCase = 2;      ///< Case (2..4) that holds unless case 1 does.

    /** Whether case 1 holds at @p t_gar: the deciding predicate. */
    bool case1(double t_gar) const { return t_gar > threshold; }
};

/** Evaluate Q1..Q3 and the deciding threshold at degree @p r. */
CaseSplit caseSplitAt(const PipelineProblem &p, double r);

/** Case id (1..4) that holds at degree @p r; exactly one always does. */
int caseAt(const PipelineProblem &p, double r);

/** Case formula t1..t4 evaluated at @p r (no case check). */
double caseTime(const PipelineProblem &p, int case_id, double r);

/**
 * The paper's analytic MoE-layer makespan at degree @p r: the formula
 * of whichever case holds at r.
 */
double analyticMoeTime(const PipelineProblem &p, double r);

/**
 * Overlappable time t_olp,moe at degree @p r (paper §5.2): how much
 * Gradient-AllReduce can hide inside the pipeline without extending
 * it. Evaluates the problem with t_gar forced to zero.
 */
double overlappableMoeTime(const PipelineProblem &p, double r);

/**
 * Algorithm 1: solve the four constrained case minimisations
 * (continuous r via grid-refined golden section, standing in for the
 * paper's SLSQP), then refine to the best feasible integer degree in
 * [1, rMax] using the analytic makespan.
 */
PipelineSolution solvePipeline(const PipelineProblem &p);

/**
 * The t_gar-free terms of Algorithm 1's 512-point grid for one
 * problem: at each sample its CaseSplit, the case-1 makespan less
 * t_gar and the other case's makespan, the subexpressions
 * DegreeTable::Row holds at integer r. Built once, it lets solves of
 * the same problem at many t_gar values (a gradient partition's
 * layers) pick a case per sample instead of evaluating the formulas.
 */
class PipelineGrid
{
  public:
    /** Tabulate @p p's grid; p.tGar is ignored. */
    explicit PipelineGrid(const PipelineProblem &p);

    /** One sample's t_gar-free terms. */
    struct Sample
    {
        CaseSplit split;
        double case1Base; ///< Case-1 makespan less t_gar.
        double otherTime; ///< Makespan of split.otherCase.
    };

    const std::vector<Sample> &samples() const { return samples_; }

  private:
    std::vector<Sample> samples_; ///< Empty at rMax = 1: no grid.
};

/**
 * solvePipeline(p) with the grid pass read from @p grid, which must be
 * PipelineGrid(q) for a q equal to @p p but in tGar. Same bits.
 */
PipelineSolution solvePipeline(const PipelineProblem &p,
                               const PipelineGrid &grid);

/**
 * Brute-force reference: evaluate analyticMoeTime at every integer r
 * in [1, rMax] and return the argmin. The test oracle for
 * solvePipeline and DegreeTable::minTime.
 */
PipelineSolution solvePipelineExhaustive(const PipelineProblem &p);

/**
 * Analytic makespan when intra-node collectives ride the inter-node
 * channel (the FSMoE-No-IIO ablation and the Tutel baselines): the
 * channel serialises dispatch, AllGather, ReduceScatter, combine and
 * Gradient-AllReduce, so the makespan is the larger of the channel's
 * busy time and the compute-bound pipeline path.
 */
double mergedMoeTime(const PipelineProblem &p, double r);

/** Integer argmin of mergedMoeTime over [1, rMax]. */
PipelineSolution solvePipelineMerged(const PipelineProblem &p);

/**
 * The t_gar-independent terms of analyticMoeTime and mergedMoeTime at
 * every degree r in [1, rMax] of one problem, built once so the
 * problem's minimum makespan can be re-evaluated for many t_gar values
 * (the gradient partitioner's step-2 objective). Each row holds the
 * very subexpressions the per-degree formulas compute, and t_gar is
 * added last in both, so minTime(g) has exactly the bits of
 * solvePipelineExhaustive(p with tGar = g).tMoe and minMergedTime(g)
 * those of solvePipelineMerged's.
 *
 * The rows are not scanned per query: construction sorts them into
 * lower envelopes (docs/PERFORMANCE.md has the exactness argument),
 * so each query is one binary search plus one addition of t_gar.
 * Ties can differ from the scans only in the sign of a zero, so
 * exactness needs no row field to be -0.0. NaN fields act as in the
 * scans: a NaN threshold is never case 1, a NaN makespan is skipped.
 */
class DegreeTable
{
  public:
    /** The t_gar-free terms of both makespan formulas at one degree. */
    struct Row
    {
        CaseSplit split;
        double case1Base;   ///< Case-1 makespan less t_gar.
        double otherTime;   ///< Makespan of split.otherCase.
        double channelBase; ///< Merged-channel busy time less t_gar.
        double compute;     ///< Merged model's compute-bound path.
    };

    /** Tabulate @p p at r = 1..p.rMax; p.tGar is ignored. */
    explicit DegreeTable(const PipelineProblem &p);

    /** Build the envelopes of @p rows (at least one). */
    explicit DegreeTable(const std::vector<Row> &rows);

    /** min over r of analyticMoeTime at t_gar = @p t_gar. */
    double minTime(double t_gar) const;

    /** min over r of mergedMoeTime at t_gar = @p t_gar. */
    double minMergedTime(double t_gar) const;

    /** A closed t_gar interval [lo, hi]. */
    struct Interval
    {
        double lo, hi;
    };

    /**
     * The t_gar intervals on which minTime (@p merged: minMergedTime)
     * is flat, ascending and disjoint; lo may be -inf. Between and
     * after them the envelope rises with slope 1 in t_gar.
     */
    std::vector<Interval> flats(bool merged) const;

  private:
    // Case-1 envelope, rows ordered by threshold (NaN stored as +inf,
    // which no t_gar exceeds either): threshold_[k] ascending,
    // case1Prefix_[k] the least case1Base of the first k rows and
    // otherSuffix_[k] the least otherTime of the rest (size n + 1).
    std::vector<double> threshold_, case1Prefix_, otherSuffix_;
    // Merged envelope, rows ordered by compute (NaN stored as -inf,
    // which std::max ignores alike): compute_[k] ascending and
    // channelPrefix_[k] the least channelBase of rows 0..k.
    std::vector<double> compute_, channelPrefix_;
};

} // namespace fsmoe::core

#endif // FSMOE_CORE_PIPELINE_SOLVER_H
