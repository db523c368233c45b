#include "core/pipeline_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.h"
#include "solver/minimize.h"

namespace fsmoe::core {

PipelineProblem
makeProblem(const PerfModelSet &models, const Workload &w, Phase phase,
            double t_gar, int r_max)
{
    const double bwd = phase == Phase::Backward ? 2.0 : 1.0;
    PipelineProblem p;
    p.a2a = {models.alltoall.alpha, models.alltoall.beta, w.a2aBytes};
    p.ag = {models.allgather.alpha, models.allgather.beta, w.agBytes};
    p.rs = {models.reducescatter.alpha, models.reducescatter.beta,
            w.rsBytes};
    // Expert startup scales with GEMM launches; backward doubles both
    // the launch count and the MAC volume (input + weight gradients).
    p.exp = {models.gemm.alpha * w.expertGemms * bwd, models.gemm.beta,
             w.expertMacs * bwd};
    p.tGar = phase == Phase::Backward ? t_gar : 0.0;
    p.rMax = r_max;
    return p;
}

namespace {

/** Per-chunk times of the four task types at one degree (Eq. 1). */
struct Chunks
{
    double a2a, ag, rs, exp;
};

Chunks
chunksAt(const PipelineProblem &p, double r)
{
    return {p.a2a.chunk(r), p.ag.chunk(r), p.rs.chunk(r), p.exp.chunk(r)};
}

// The makespan formulas below add t_gar last, so every t_gar-free
// prefix is a subexpression DegreeTable can store with unchanged bits.

/** 2r AlltoAll chunks back to back: case 1 less t_gar, and case 3's head. */
double
interBase(const Chunks &c, double r)
{
    return 2.0 * r * c.a2a;
}

/** Compute-bound path: case 2, and the merged model's compute side. */
double
computeBound(const Chunks &c, double r)
{
    return 2.0 * c.a2a + c.ag + c.rs + r * c.exp;
}

/** Merged-channel busy time less t_gar. */
double
channelBase(const Chunks &c, double r)
{
    return r * (2.0 * c.a2a + c.ag + c.rs);
}

CaseSplit
caseSplitOf(const Chunks &c, double r)
{
    if (c.a2a > c.ag) {                                        // Q1
        if (r * c.exp > 2.0 * (r - 1.0) * c.a2a)               // Q2
            return {r * c.exp - 2.0 * (r - 1.0) * c.a2a + c.ag + c.rs,
                    2};                                        // Q5
        return {c.ag + c.rs, 3};                               // Q4
    }
    if (r * c.exp > (r - 1.0) * (c.ag + c.rs))                 // Q3
        return {c.ag + c.rs + r * c.exp - 2.0 * (r - 1.0) * c.a2a,
                2};                                            // Q7
    return {r * c.ag + r * c.rs - 2.0 * (r - 1.0) * c.a2a, 4}; // Q6
}

double
caseTimeOf(const Chunks &c, int case_id, double r, double t_gar)
{
    switch (case_id) {
      case 1: // inter-node communication dominates (Eq. 2)
        return interBase(c, r) + t_gar;
      case 2: // expert computation dominates
        return computeBound(c, r);
      case 3: // AlltoAll dominates, gar and experts small
        return interBase(c, r) + c.ag + c.rs;
      case 4: // intra-node communication dominates
        return 2.0 * c.a2a + r * (c.ag + c.rs);
      default:
        FSMOE_PANIC("invalid case id ", case_id);
    }
}

} // namespace

CaseSplit
caseSplitAt(const PipelineProblem &p, double r)
{
    return caseSplitOf(chunksAt(p, r), r);
}

int
caseAt(const PipelineProblem &p, double r)
{
    const CaseSplit s = caseSplitAt(p, r);
    return s.case1(p.tGar) ? 1 : s.otherCase;
}

double
caseTime(const PipelineProblem &p, int case_id, double r)
{
    return caseTimeOf(chunksAt(p, r), case_id, r, p.tGar);
}

double
analyticMoeTime(const PipelineProblem &p, double r)
{
    return caseTime(p, caseAt(p, r), r);
}

double
overlappableMoeTime(const PipelineProblem &p, double r)
{
    PipelineProblem q = p;
    q.tGar = 0.0;
    const double a2a = q.a2a.chunk(r);
    const double ag = q.ag.chunk(r);
    const double rs = q.rs.chunk(r);
    const double exp = q.exp.chunk(r);
    switch (caseAt(q, r)) {
      case 2:
        return r * exp + ag + rs - 2.0 * (r - 1.0) * a2a;
      case 3:
        return ag + rs;
      case 4:
        return r * (ag + rs) - 2.0 * (r - 1.0) * a2a;
      default:
        // Case 1 with t_gar = 0 can only occur in degenerate corners
        // (see §5.2); the inter-node link then has no slack beyond the
        // first/last chunk boundaries.
        return ag + rs;
    }
}

namespace {

/** Algorithm 1's grid: 512 samples of [1, rMax], none at rMax = 1. */
constexpr int kGridSamples = 512;

bool
hasGrid(const PipelineProblem &p)
{
    return static_cast<double>(p.rMax) - 1.0 >= 1e-12;
}

double
gridStep(const PipelineProblem &p)
{
    return (static_cast<double>(p.rMax) - 1.0) / (kGridSamples - 1);
}

/** A grid sample's case and makespan at the problem's t_gar. */
struct Classified
{
    int caseId;
    double t;
};

/**
 * Algorithm 1 with its grid pass classifying sample i, at degree r,
 * by @p classify(i, r).
 */
template <class Classify>
PipelineSolution
solveAlgorithm1(const PipelineProblem &p, Classify classify)
{
    FSMOE_CHECK_ARG(p.rMax >= 1, "rMax must be at least 1");
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const auto feasible = [&](int case_id, double r) {
        return caseAt(p, r) == case_id;
    };

    // Lines 1-6 of Algorithm 1: minimise each case's formula t1..t4
    // over its feasible region in [1, rMax], a union of intervals.
    // One pass over a 512-point grid classifies every sample once and
    // keeps each case's best (the first on ties; a case whose samples
    // are all NaN or +inf finds nothing). Each case's best is then
    // refined by golden section over the feasible run around it,
    // walked out in grid steps.
    double best_cont_r = 1.0;
    double best_cont_t = kInf;
    const double r_lo = 1.0, r_hi = static_cast<double>(p.rMax);
    // At rMax = 1 the one candidate is r = 1.
    if (hasGrid(p)) {
        const double step = gridStep(p);
        double grid_r[5] = {};
        double grid_t[5] = {kInf, kInf, kInf, kInf, kInf};
        for (int i = 0; i < kGridSamples; ++i) {
            const double r = r_lo + step * i;
            const auto [k, t] = classify(i, r);
            if (t < grid_t[k]) {
                grid_t[k] = t;
                grid_r[k] = r;
            }
        }
        for (int k = 1; k <= 4; ++k) {
            if (grid_t[k] == kInf)
                continue;
            double left = grid_r[k], right = grid_r[k];
            while (left - step >= r_lo && feasible(k, left - step))
                left -= step;
            while (right + step <= r_hi && feasible(k, right + step))
                right += step;
            solver::Minimum m = solver::goldenSection(
                [&](double r) {
                    return caseTimeOf(chunksAt(p, r), k, r, p.tGar);
                },
                left, right);
            if (!(feasible(k, m.x) && m.value < grid_t[k]))
                m = {grid_r[k], grid_t[k]};
            if (m.value < best_cont_t) {
                best_cont_t = m.value;
                best_cont_r = m.x;
            }
        }
    }
    // No finite case optimum (the cases partition the space, so only
    // non-finite formulas get here, with a -inf one moving r): r = 1.
    if (!std::isfinite(best_cont_t))
        best_cont_r = 1.0;

    // Integer refinement: a pipeline degree is a chunk count. Probe
    // the neighbourhood of the continuous optimum plus the boundary.
    PipelineSolution sol;
    sol.rContinuous = best_cont_r;
    double best_t = std::numeric_limits<double>::infinity();
    int lo = std::max(1, static_cast<int>(std::floor(best_cont_r)) - 2);
    int hi = std::min(p.rMax, static_cast<int>(std::ceil(best_cont_r)) + 2);
    auto consider = [&](int r) {
        double t = analyticMoeTime(p, r);
        if (t < best_t) {
            best_t = t;
            sol.r = r;
        }
    };
    consider(1);
    for (int r = lo; r <= hi; ++r)
        consider(r);
    sol.tMoe = best_t;
    sol.caseId = caseAt(p, sol.r);
    sol.tOlpMoe = overlappableMoeTime(p, sol.r);
    return sol;
}

} // namespace

PipelineSolution
solvePipeline(const PipelineProblem &p)
{
    return solveAlgorithm1(p, [&](int, double r) {
        const Chunks c = chunksAt(p, r);
        const CaseSplit split = caseSplitOf(c, r);
        const int k = split.case1(p.tGar) ? 1 : split.otherCase;
        return Classified{k, caseTimeOf(c, k, r, p.tGar)};
    });
}

PipelineGrid::PipelineGrid(const PipelineProblem &p)
{
    if (!hasGrid(p))
        return;
    const double step = gridStep(p);
    samples_.reserve(kGridSamples);
    for (int i = 0; i < kGridSamples; ++i) {
        const double r = 1.0 + step * i;
        const Chunks c = chunksAt(p, r);
        const CaseSplit split = caseSplitOf(c, r);
        // Cases 2-4 do not read t_gar.
        samples_.push_back({split, interBase(c, r),
                            caseTimeOf(c, split.otherCase, r, 0.0)});
    }
}

PipelineSolution
solvePipeline(const PipelineProblem &p, const PipelineGrid &grid)
{
    FSMOE_CHECK_ARG(grid.samples().size() ==
                        (hasGrid(p) ? size_t{kGridSamples} : 0),
                    "the grid of another problem");
    // Case 1's time is case1Base + t_gar, the very addition caseTimeOf
    // makes, and the other cases read no t_gar: the bits of a sample
    // classified in place.
    const PipelineGrid::Sample *samples = grid.samples().data();
    return solveAlgorithm1(p, [&](int i, double) {
        const PipelineGrid::Sample &s = samples[i];
        return s.split.case1(p.tGar)
                   ? Classified{1, s.case1Base + p.tGar}
                   : Classified{s.split.otherCase, s.otherTime};
    });
}

double
mergedMoeTime(const PipelineProblem &p, double r)
{
    const Chunks c = chunksAt(p, r);
    return std::max(channelBase(c, r) + p.tGar, computeBound(c, r));
}

PipelineSolution
solvePipelineMerged(const PipelineProblem &p)
{
    FSMOE_CHECK_ARG(p.rMax >= 1, "rMax must be at least 1");
    PipelineSolution sol;
    double best_t = std::numeric_limits<double>::infinity();
    for (int r = 1; r <= p.rMax; ++r) {
        double t = mergedMoeTime(p, r);
        if (t < best_t) {
            best_t = t;
            sol.r = r;
        }
    }
    sol.rContinuous = sol.r;
    sol.tMoe = best_t;
    sol.caseId = caseAt(p, sol.r);
    // Channel slack usable by Gradient-AllReduce without extending the
    // merged-channel makespan.
    PipelineProblem q = p;
    q.tGar = 0.0;
    sol.tOlpMoe = std::max(0.0, mergedMoeTime(q, sol.r) -
                                    channelBase(chunksAt(q, sol.r), sol.r));
    return sol;
}

PipelineSolution
solvePipelineExhaustive(const PipelineProblem &p)
{
    FSMOE_CHECK_ARG(p.rMax >= 1, "rMax must be at least 1");
    PipelineSolution sol;
    double best_t = std::numeric_limits<double>::infinity();
    for (int r = 1; r <= p.rMax; ++r) {
        double t = analyticMoeTime(p, r);
        if (t < best_t) {
            best_t = t;
            sol.r = r;
        }
    }
    sol.rContinuous = sol.r;
    sol.tMoe = best_t;
    sol.caseId = caseAt(p, sol.r);
    sol.tOlpMoe = overlappableMoeTime(p, sol.r);
    return sol;
}

namespace {

std::vector<DegreeTable::Row>
tabulate(const PipelineProblem &p)
{
    FSMOE_CHECK_ARG(p.rMax >= 1, "rMax must be at least 1");
    std::vector<DegreeTable::Row> rows;
    rows.reserve(static_cast<size_t>(p.rMax));
    for (int i = 1; i <= p.rMax; ++i) {
        const double r = i;
        const Chunks c = chunksAt(p, r);
        const CaseSplit split = caseSplitOf(c, r);
        // Cases 2-4 do not read t_gar.
        rows.push_back({split, interBase(c, r),
                        caseTimeOf(c, split.otherCase, r, 0.0),
                        channelBase(c, r), computeBound(c, r)});
    }
    return rows;
}

/** The lesser of @p a and @p b, ignoring a NaN @p a as the scans did. */
double
lesser(double a, double b)
{
    return a < b ? a : b;
}

} // namespace

DegreeTable::DegreeTable(const PipelineProblem &p) : DegreeTable(tabulate(p))
{
}

// Both envelopes rest on fl(a + t) being monotone in a, so the least
// rounded sum over any set of rows is the rounded sum of the least a:
// taking minima before adding t_gar changes no bit.
DegreeTable::DegreeTable(const std::vector<Row> &rows)
{
    FSMOE_CHECK_ARG(!rows.empty(), "a degree table needs a row");
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const size_t n = rows.size();
    std::vector<size_t> order(n);

    const auto threshold = [&](size_t i) {
        const double th = rows[i].split.threshold;
        return std::isnan(th) ? kInf : th;
    };
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return threshold(a) < threshold(b);
    });
    threshold_.resize(n);
    case1Prefix_.assign(n + 1, kInf);
    otherSuffix_.assign(n + 1, kInf);
    for (size_t k = 0; k < n; ++k) {
        const Row &row = rows[order[k]];
        threshold_[k] = threshold(order[k]);
        case1Prefix_[k + 1] = lesser(row.case1Base, case1Prefix_[k]);
    }
    for (size_t k = n; k-- > 0;)
        otherSuffix_[k] = lesser(rows[order[k]].otherTime, otherSuffix_[k + 1]);

    const auto compute = [&](size_t i) {
        const double c = rows[i].compute;
        return std::isnan(c) ? -kInf : c;
    };
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return compute(a) < compute(b);
    });
    compute_.resize(n);
    channelPrefix_.resize(n);
    double channel = kInf;
    for (size_t k = 0; k < n; ++k) {
        compute_[k] = compute(order[k]);
        channel = lesser(rows[order[k]].channelBase, channel);
        channelPrefix_[k] = channel;
    }
}

// A row is in case 1 iff t_gar > threshold, so the case-1 rows are the
// first k in threshold order, k = lower_bound(t_gar) (no NaN t_gar
// exceeds anything, and lower_bound counts none for it either). The
// answer is the better of the least case-1 sum and the least fallback.
double
DegreeTable::minTime(double t_gar) const
{
    const size_t k = static_cast<size_t>(
        std::lower_bound(threshold_.begin(), threshold_.end(), t_gar) -
        threshold_.begin());
    return lesser(case1Prefix_[k] + t_gar, otherSuffix_[k]);
}

// min_j max(a_j + t, c_j) over rows equals min_k max(P_k + t, c_k) with
// rows in compute order and P_k the least a of rows 0..k (a row j's
// pair bounds row k's from below when c_j <= c_k). P_k + t falls and
// c_k rises with k, so past the first k with c_k >= P_k + t the max is
// c_k, and before it P_k + t: the minimum is one of the two neighbours.
double
DegreeTable::minMergedTime(double t_gar) const
{
    size_t lo = 0, hi = compute_.size();
    while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (compute_[mid] >= channelPrefix_[mid] + t_gar)
            hi = mid;
        else
            lo = mid + 1;
    }
    double best = lo < compute_.size()
                      ? compute_[lo]
                      : std::numeric_limits<double>::infinity();
    if (lo > 0)
        best = lesser(channelPrefix_[lo - 1] + t_gar, best);
    return best;
}

// Every row's makespan is max(c, a + t_gar), flat up to t_gar = c - a
// and rising after, so each envelope is flat, then rising, on the
// intervals between its breakpoints. Threshold order: on
// (threshold_[k-1], threshold_[k]] minTime is min(P + t, O), flat
// from t = O - P on. Compute order: the staircase of minMergedTime
// holds compute_[k] from channelPrefix_[k-1] + t = compute_[k] to
// channelPrefix_[k] + t = compute_[k] (from -inf for k = 0).
std::vector<DegreeTable::Interval>
DegreeTable::flats(bool merged) const
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<Interval> out;
    double last_value = kInf;
    const auto add = [&](double lo, double hi, double value) {
        if (!(lo < hi))
            return;
        if (!out.empty() && out.back().hi >= lo && last_value == value)
            out.back().hi = std::max(out.back().hi, hi);
        else
            out.push_back({lo, hi});
        last_value = value;
    };
    if (merged) {
        for (size_t k = 0; k < compute_.size(); ++k)
            add(k == 0 ? -kInf : compute_[k] - channelPrefix_[k - 1],
                compute_[k] - channelPrefix_[k], compute_[k]);
    } else {
        for (size_t k = 0; k < otherSuffix_.size(); ++k) {
            const double lo = k == 0 ? -kInf : threshold_[k - 1];
            const double hi = k < threshold_.size() ? threshold_[k] : kInf;
            if (otherSuffix_[k] < kInf)
                add(std::max(lo, otherSuffix_[k] - case1Prefix_[k]), hi,
                    otherSuffix_[k]);
        }
    }
    return out;
}

} // namespace fsmoe::core
