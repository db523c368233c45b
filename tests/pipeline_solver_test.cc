/**
 * @file
 * Tests for Algorithm 1: predicate logic, case formulas, continuous
 * vs exhaustive agreement over a configuration sweep, bit-exactness of
 * the per-degree table against the integer solvers and of its sorted
 * envelopes against the naive row scan, bit-identity of the
 * single-pass solve to the four-pass one it replaced, agreement with
 * the discrete-event simulator, and the paper's observation that
 * forward and backward phases prefer different degrees.
 */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/moe_config.h"
#include "core/perf_model.h"
#include "core/pipeline_solver.h"
#include "core/schedules/schedule.h"
#include "degree_table_reference.h"
#include "runtime/scenario.h"
#include "sim/cluster.h"
#include "sim/simulator.h"
#include "solver/minimize.h"

namespace fsmoe::core {
namespace {

PipelineProblem
problemFor(const sim::ClusterSpec &cluster, const LayerShape &shape,
           Phase phase, double t_gar = 0.0)
{
    ParallelConfig par;
    par.numMp = cluster.gpusPerNode;
    par.numEsp = cluster.gpusPerNode;
    par.numEp = cluster.numNodes;
    PerfModelSet models = PerfModelSet::fromCluster(cluster);
    return makeProblem(models, deriveWorkload(shape, par), phase, t_gar);
}

TEST(PipelineSolver, ChunkTimesFollowEq1)
{
    TaskModel m{0.5, 2.0, 10.0};
    EXPECT_DOUBLE_EQ(m.chunk(1), 20.5);
    EXPECT_DOUBLE_EQ(m.chunk(4), 5.5);
}

TEST(PipelineSolver, CasesPartitionTheSpace)
{
    // Whatever the inputs, exactly one case must hold at every r.
    sim::ClusterSpec a = sim::testbedA();
    for (double h_scale : {2, 3, 4}) {
        for (int64_t m : {1024, 2048, 4096}) {
            LayerShape s;
            s.embed = m;
            s.hidden = static_cast<int64_t>(m * h_scale);
            s.numExperts = a.numNodes;
            for (double gar : {0.0, 1.0, 10.0}) {
                PipelineProblem p =
                    problemFor(a, s, Phase::Backward, gar);
                for (int r = 1; r <= 16; ++r) {
                    int c = caseAt(p, r);
                    EXPECT_GE(c, 1);
                    EXPECT_LE(c, 4);
                }
            }
        }
    }
}

TEST(PipelineSolver, Case1FormulaMatchesEq2)
{
    PipelineProblem p;
    p.a2a = {0.3, 1e-3, 1000.0};
    p.ag = {0.1, 1e-4, 1000.0};
    p.rs = {0.1, 1e-4, 1000.0};
    p.exp = {0.05, 1e-5, 1000.0};
    p.tGar = 5.0;
    double r = 4.0;
    double expect = 2.0 * r * (0.3 + 1.0 / r) + 5.0;
    EXPECT_NEAR(caseTime(p, 1, r), expect, 1e-9);
}

TEST(PipelineSolver, CaseFormulasAreTheMaxEnvelope)
{
    // The active case's formula is the largest of the four — the case
    // analysis identifies the binding resource.
    sim::ClusterSpec b = sim::testbedB();
    LayerShape s;
    s.embed = 2048;
    s.hidden = 4096;
    s.numExperts = b.numNodes;
    for (double gar : {0.0, 2.0, 20.0}) {
        PipelineProblem p = problemFor(b, s, Phase::Backward, gar);
        for (int r = 1; r <= 12; ++r) {
            int c = caseAt(p, r);
            double t = caseTime(p, c, r);
            for (int other = 1; other <= 4; ++other) {
                EXPECT_GE(t + 1e-9, caseTime(p, other, r))
                    << "case " << c << " not max at r=" << r
                    << " (vs case " << other << ", gar=" << gar << ")";
            }
        }
    }
}

/** The Table-4 slice both testbeds are swept over, t_gar = 0.8. */
std::vector<PipelineProblem>
table4Slice()
{
    std::vector<PipelineProblem> problems;
    for (const sim::ClusterSpec &cluster :
         {sim::testbedA(), sim::testbedB()}) {
        for (int64_t batch : {1, 4}) {
            for (int64_t len : {512, 1024}) {
                for (int64_t m : {1024, 4096}) {
                    for (double hs : {2.0, 4.0}) {
                        LayerShape s;
                        s.batch = batch;
                        s.seqLen = len;
                        s.embed = m;
                        s.hidden = static_cast<int64_t>(m * hs);
                        s.numExperts = cluster.numNodes;
                        for (Phase ph : {Phase::Forward, Phase::Backward})
                            problems.push_back(
                                problemFor(cluster, s, ph, 0.8));
                    }
                }
            }
        }
    }
    return problems;
}

TEST(PipelineSolver, SolverMatchesExhaustiveOnSweep)
{
    // Require the Algorithm-1 solve to match brute force on the slice.
    int checked = 0, matched_time = 0;
    for (const PipelineProblem &p : table4Slice()) {
        PipelineSolution fast = solvePipeline(p);
        PipelineSolution ref = solvePipelineExhaustive(p);
        checked++;
        // Times must agree to within 2%; the degree itself may differ
        // on flat optima.
        if (fast.tMoe <= ref.tMoe * 1.02)
            matched_time++;
    }
    EXPECT_EQ(checked, matched_time)
        << "Algorithm 1 lost >2% vs brute force on some configs";
    EXPECT_EQ(checked, 2 * 2 * 2 * 2 * 2 * 2);
}

uint64_t
bitsOf(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

TEST(PipelineSolver, DegreeTableIsBitExactAgainstTheSolvers)
{
    // The gradient partitioner's objective reads minimum makespans from
    // DegreeTable instead of solving; any reordered expression would
    // move the blessed baselines, so equality is on the bit pattern.
    // Probe both signed zeros, each row's case-1 threshold and its two
    // neighbouring doubles (where the deciding predicate flips), and a
    // tiny and a huge t_gar.
    int probes = 0;
    for (PipelineProblem p : table4Slice()) {
        const DegreeTable table(p);
        std::vector<double> gars = {0.0, -0.0, 1e-300, 1e6};
        for (int r = 1; r <= p.rMax; ++r) {
            const double th = caseSplitAt(p, r).threshold;
            gars.push_back(th);
            gars.push_back(std::nextafter(th, -HUGE_VAL));
            gars.push_back(std::nextafter(th, HUGE_VAL));
        }
        for (double g : gars) {
            p.tGar = g;
            EXPECT_EQ(bitsOf(table.minTime(g)),
                      bitsOf(solvePipelineExhaustive(p).tMoe))
                << "t_gar=" << g;
            EXPECT_EQ(bitsOf(table.minMergedTime(g)),
                      bitsOf(solvePipelineMerged(p).tMoe))
                << "t_gar=" << g;
            ++probes;
        }
    }
    EXPECT_EQ(probes, 64 * (4 + 3 * 64));
}

/**
 * Seeded random rows with positive terms. A third of the thresholds
 * and compute terms repeat an earlier row's (ties the envelopes must
 * order like the scan), thresholds go negative so negative t_gar
 * reaches case 1, and about one field in 24 is NaN: a NaN threshold is
 * never case 1, and the scan skips a NaN makespan.
 */
std::vector<DegreeTable::Row>
randomRows(std::mt19937_64 &rng, size_t n)
{
    std::uniform_real_distribution<double> term(0.125, 40.0);
    std::uniform_real_distribution<double> th(-10.0, 30.0);
    std::uniform_int_distribution<int> die(0, 23);
    const auto maybe_nan = [&](double v) {
        return die(rng) == 0 ? std::numeric_limits<double>::quiet_NaN() : v;
    };
    std::vector<DegreeTable::Row> rows;
    for (size_t i = 0; i < n; ++i) {
        DegreeTable::Row row{};
        std::uniform_int_distribution<size_t> earlier(0, i > 0 ? i - 1 : 0);
        const bool tie_threshold = i > 0 && die(rng) < 8;
        row.split.threshold = maybe_nan(
            tie_threshold ? rows[earlier(rng)].split.threshold : th(rng));
        row.split.otherCase = 2;
        row.case1Base = maybe_nan(term(rng));
        row.otherTime = maybe_nan(term(rng));
        row.channelBase = maybe_nan(term(rng));
        const bool tie_compute = i > 0 && die(rng) < 8;
        row.compute = maybe_nan(tie_compute ? rows[earlier(rng)].compute
                                            : term(rng));
        rows.push_back(row);
    }
    return rows;
}

TEST(PipelineSolver, DegreeTableEnvelopesMatchTheRowScanBitwise)
{
    // The envelopes answer with a binary search where the solvers scan
    // every degree; any disagreement, even in the last bit, would move
    // a DE decision. Probe every threshold and its neighbouring doubles
    // (where a row enters case 1), both signed zeros, negative, huge
    // and infinite t_gar, and the merged model's crossover points
    // compute - channelBase, on tables of 1 to 64 rows.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::mt19937_64 rng(0x5eedc0deULL);
    int probes = 0;
    for (size_t n : {1, 1, 2, 3, 5, 16, 16, 16, 64, 64}) {
        for (int rep = 0; rep < 8; ++rep) {
            const std::vector<DegreeTable::Row> rows = randomRows(rng, n);
            const DegreeTable table(rows);
            std::vector<double> gars = {0.0,  -0.0,  -3.5,  1e-300,
                                        7.25, 1e6,   1e300, -1e300,
                                        kInf, -kInf};
            for (const DegreeTable::Row &row : rows) {
                for (double g : {row.split.threshold,
                                 row.compute - row.channelBase}) {
                    gars.push_back(g);
                    gars.push_back(std::nextafter(g, -kInf));
                    gars.push_back(std::nextafter(g, kInf));
                }
            }
            for (double g : gars) {
                const double t = table.minTime(g);
                const double m = table.minMergedTime(g);
                EXPECT_EQ(bitsOf(t), bitsOf(referenceMinTime(rows, g)))
                    << "rows=" << n << " t_gar=" << g;
                EXPECT_EQ(bitsOf(m),
                          bitsOf(referenceMinMergedTime(rows, g)))
                    << "rows=" << n << " t_gar=" << g;
                ++probes;
            }
        }
    }
    EXPECT_GT(probes, 8 * 10 * 10);
}

TEST(PipelineSolver, DegreeTableFlatsAreWhereTheEnvelopeIsFlat)
{
    // The gradient partitioner reads each envelope only through its
    // flats and assumes slope 1 in t_gar everywhere else, so on real
    // problems both must hold: one value across each flat, and
    // minTime(b) - minTime(a) = b - a between and after them. The
    // demo grid's backward problems have up to six flats each.
    std::vector<PipelineProblem> problems = table4Slice();
    std::map<std::string, runtime::Scenario> configs;
    for (const runtime::Scenario &s : runtime::demoGrid())
        configs.emplace(s.costKey(), s);
    for (const auto &[key, s] : configs)
        problems.push_back(detail::makeGeneralizedLayers(
                               runtime::ScenarioRegistry::instance()
                                   .makeCost(s))
                               .front()
                               .moe);
    int flats = 0, gaps = 0;
    size_t most = 0;
    for (const PipelineProblem &p : problems) {
        const DegreeTable table(p);
        for (bool merged : {false, true}) {
            const auto at = [&](double g) {
                return merged ? table.minMergedTime(g) : table.minTime(g);
            };
            const std::vector<DegreeTable::Interval> fl =
                table.flats(merged);
            ASSERT_FALSE(fl.empty());
            most = std::max(most, fl.size());
            double rise = 0.0; // where the current rise starts
            for (size_t k = 0; k <= fl.size(); ++k) {
                const double lo = k < fl.size() ? std::max(fl[k].lo, 0.0)
                                                : rise + 50.0;
                if (rise < lo) {
                    EXPECT_NEAR(at(lo) - at(rise), lo - rise, 1e-9 * at(lo));
                    ++gaps;
                }
                if (k == fl.size())
                    break;
                if (k > 0) {
                    EXPECT_LE(fl[k - 1].hi, fl[k].lo);
                }
                const double hi = fl[k].hi;
                if (!(lo < hi))
                    continue; // wholly below t_gar = 0
                const double mid = at(lo + 0.5 * (hi - lo));
                EXPECT_EQ(at(lo + 0.25 * (hi - lo)), mid);
                EXPECT_EQ(at(lo + 0.75 * (hi - lo)), mid);
                EXPECT_NEAR(at(hi), mid, 1e-9 * mid);
                rise = hi;
                ++flats;
            }
        }
    }
    EXPECT_GT(flats, 0);
    EXPECT_GT(gaps, 0);
    EXPECT_GE(most, 5u);
}

/**
 * Minimise @p f over [lo, hi] where @p feasible holds, as the solver
 * did before its single grid pass: scan @p samples grid points, keep
 * the best feasible one, then golden-section over the feasible run
 * around it. Nothing when no grid point has a value below +inf.
 */
std::optional<solver::Minimum>
minimizeConstrained(const std::function<double(double)> &f,
                    const std::function<bool(double)> &feasible, double lo,
                    double hi, int samples = 512)
{
    if (hi - lo < 1e-12) {
        if (!feasible(lo))
            return std::nullopt;
        return solver::Minimum{lo, f(lo)};
    }
    const double step = (hi - lo) / (samples - 1);
    double best_x = 0.0;
    double best_v = std::numeric_limits<double>::infinity();
    bool found = false;
    for (int i = 0; i < samples; ++i) {
        double x = lo + step * i;
        if (!feasible(x))
            continue;
        double v = f(x);
        if (v < best_v) {
            best_v = v;
            best_x = x;
            found = true;
        }
    }
    if (!found)
        return std::nullopt;
    double left = best_x, right = best_x;
    while (left - step >= lo && feasible(left - step))
        left -= step;
    while (right + step <= hi && feasible(right + step))
        right += step;
    solver::Minimum refined = solver::goldenSection(f, left, right);
    if (feasible(refined.x) && refined.value < best_v)
        return refined;
    return solver::Minimum{best_x, best_v};
}

/**
 * The four-pass Algorithm 1 the single-pass solvePipeline replaced:
 * one constrained solve per case, each classifying every grid point
 * through the public caseAt, then the same integer refinement.
 */
PipelineSolution
solvePipelineFourPass(const PipelineProblem &p)
{
    double best_cont_r = 1.0;
    double best_cont_t = std::numeric_limits<double>::infinity();
    for (int c = 1; c <= 4; ++c) {
        auto m = minimizeConstrained(
            [&](double r) { return caseTime(p, c, r); },
            [&](double r) { return caseAt(p, r) == c; }, 1.0,
            static_cast<double>(p.rMax));
        if (m && m->value < best_cont_t) {
            best_cont_t = m->value;
            best_cont_r = m->x;
        }
    }
    if (!std::isfinite(best_cont_t))
        best_cont_r = 1.0;

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

/** Every PipelineSolution field of @p p from both solves, bitwise. */
void
expectSinglePassIsTheFourPassSolve(const PipelineProblem &p,
                                   const std::string &where)
{
    const PipelineSolution fast = solvePipeline(p);
    const PipelineSolution ref = solvePipelineFourPass(p);
    EXPECT_EQ(bitsOf(fast.rContinuous), bitsOf(ref.rContinuous)) << where;
    EXPECT_EQ(fast.r, ref.r) << where;
    EXPECT_EQ(bitsOf(fast.tMoe), bitsOf(ref.tMoe)) << where;
    EXPECT_EQ(fast.caseId, ref.caseId) << where;
    EXPECT_EQ(bitsOf(fast.tOlpMoe), bitsOf(ref.tOlpMoe)) << where;
}

/**
 * A seeded random problem at @p r_max: each task's whole-volume time
 * log-uniform in [1 us, 100 ms], its startup zero one time in four,
 * and t_gar zero, log-uniform, or on or beside the case-1 threshold of
 * a random integer degree or grid point (where case 1 flips).
 */
PipelineProblem
randomProblem(std::mt19937_64 &rng, int r_max)
{
    std::uniform_real_distribution<double> log_ms(-3.0, 2.0);
    std::uniform_real_distribution<double> startup(0.0, 0.5);
    std::uniform_int_distribution<int> die(0, 3);
    const auto task = [&] {
        TaskModel t;
        t.alpha = die(rng) == 0 ? 0.0 : startup(rng);
        t.n = std::ldexp(1.0, 10 + 5 * die(rng));
        t.beta = std::pow(10.0, log_ms(rng)) / t.n;
        return t;
    };
    PipelineProblem p;
    p.a2a = task();
    p.ag = task();
    p.rs = task();
    p.exp = task();
    p.rMax = r_max;
    const int kind = die(rng);
    if (kind == 0) {
        p.tGar = 0.0;
    } else if (kind == 1) {
        p.tGar = std::pow(10.0, log_ms(rng));
    } else {
        std::uniform_int_distribution<int> degree(1, r_max);
        std::uniform_int_distribution<int> sample(0, 511);
        const double r = kind == 2
                             ? degree(rng)
                             : 1.0 + (r_max - 1.0) / 511 * sample(rng);
        const double th = caseSplitAt(p, r).threshold;
        const int side = die(rng) % 3;
        p.tGar = side == 0 ? th
                           : std::nextafter(th, side == 1 ? -HUGE_VAL
                                                          : HUGE_VAL);
    }
    return p;
}

TEST(PipelineSolver, SinglePassEqualsTheFourPassSolveBitwise)
{
    std::mt19937_64 rng(0xa1a1);
    int ones = 0, zero_gar = 0;
    for (int i = 0; i < 2048; ++i) {
        const PipelineProblem p = randomProblem(rng, 1 + i % 64);
        ones += p.rMax == 1;
        zero_gar += p.tGar == 0.0;
        expectSinglePassIsTheFourPassSolve(p, "problem " +
                                                  std::to_string(i));
        if (::testing::Test::HasFailure())
            FAIL() << "first divergence at problem " << i;
    }
    EXPECT_EQ(ones, 32);
    EXPECT_GT(zero_gar, 400);

    // Non-finite startups: cases whose formulas are NaN or +inf find
    // nothing, and a -inf optimum falls back to r = 1.
    for (int i = 0; i < 96; ++i) {
        PipelineProblem p = randomProblem(rng, 1 + 9 * (i % 8));
        TaskModel *tasks[] = {&p.a2a, &p.ag, &p.rs, &p.exp};
        const double odd[] = {-HUGE_VAL, HUGE_VAL,
                              std::numeric_limits<double>::quiet_NaN()};
        tasks[i / 8 % 4]->alpha = odd[i / 32];
        expectSinglePassIsTheFourPassSolve(p, "non-finite problem " +
                                                  std::to_string(i));
    }
    // Every formula is -inf here: case 4 holds at r = 1 and case 2
    // past it, so case 2's optimum sits above r = 1 and the -inf
    // fallback is what returns r = 1.
    PipelineProblem corner;
    corner.a2a = {-HUGE_VAL, 1e-3, 1000.0};
    corner.ag = {0.0, 1e-6, 1000.0};
    corner.rs = {0.0, 1e-6, 1000.0};
    corner.exp = {1.0, -1e-3, 1000.0};
    corner.rMax = 16;
    ASSERT_EQ(caseAt(corner, 1.0), 4);
    ASSERT_EQ(caseAt(corner, 2.0), 2);
    EXPECT_EQ(solvePipeline(corner).rContinuous, 1.0);
    expectSinglePassIsTheFourPassSolve(corner, "all -inf");
}

TEST(PipelineSolver, SinglePassEqualsTheFourPassSolveOnTheDemoGrid)
{
    // Every backward problem the demo grid's gradient partitions
    // start from, at t_gar = 0 and on and beside each degree's case-1
    // threshold.
    std::map<std::string, runtime::Scenario> configs;
    for (const runtime::Scenario &s : runtime::demoGrid())
        configs.emplace(s.costKey(), s);
    ASSERT_EQ(configs.size(), 8u);
    int solves = 0;
    for (const auto &[key, s] : configs) {
        const ModelCost cost =
            runtime::ScenarioRegistry::instance().makeCost(s);
        const std::vector<GeneralizedLayer> layers =
            detail::makeGeneralizedLayers(cost);
        for (size_t l = 0; l < layers.size(); ++l) {
            PipelineProblem p = layers[l].moe;
            std::vector<double> gars = {0.0};
            for (int r = 1; r <= p.rMax; ++r) {
                const double th = caseSplitAt(p, r).threshold;
                gars.push_back(th);
                gars.push_back(std::nextafter(th, -HUGE_VAL));
                gars.push_back(std::nextafter(th, HUGE_VAL));
            }
            for (double g : gars) {
                p.tGar = g;
                expectSinglePassIsTheFourPassSolve(
                    p, key + " layer " + std::to_string(l) +
                           " t_gar=" + std::to_string(g));
                ++solves;
            }
        }
    }
    EXPECT_GT(solves, 8 * 16);
}

/** solvePipeline(p) and its tabulated-grid solve, field by field. */
void
expectGridSolveIsTheSolve(const PipelineProblem &p, const PipelineGrid &grid,
                          const std::string &where)
{
    const PipelineSolution want = solvePipeline(p);
    const PipelineSolution got = solvePipeline(p, grid);
    EXPECT_EQ(bitsOf(got.rContinuous), bitsOf(want.rContinuous)) << where;
    EXPECT_EQ(got.r, want.r) << where;
    EXPECT_EQ(bitsOf(got.tMoe), bitsOf(want.tMoe)) << where;
    EXPECT_EQ(got.caseId, want.caseId) << where;
    EXPECT_EQ(bitsOf(got.tOlpMoe), bitsOf(want.tOlpMoe)) << where;
}

TEST(PipelineSolver, TabulatedGridKeepsTheBits)
{
    // Each grid is built at another t_gar, then solved at the drawn
    // one and on and beside every 37th sample's case-1 threshold,
    // where the sample's case flips.
    std::mt19937_64 rng(0x96d);
    for (int i = 0; i < 512; ++i) {
        PipelineProblem p = randomProblem(rng, 1 + i % 64);
        if (i >= 448) { // non-finite startups
            TaskModel *tasks[] = {&p.a2a, &p.ag, &p.rs, &p.exp};
            const double odd[] = {-HUGE_VAL, HUGE_VAL,
                                  std::numeric_limits<double>::quiet_NaN()};
            tasks[i % 4]->alpha = odd[i % 3];
        }
        PipelineProblem other = p;
        other.tGar = 1e3;
        const PipelineGrid grid(other);
        EXPECT_EQ(grid.samples().size(), p.rMax == 1 ? 0u : 512u);
        std::vector<double> gars = {p.tGar};
        for (size_t k = 0; k < grid.samples().size(); k += 37) {
            const double th = grid.samples()[k].split.threshold;
            gars.insert(gars.end(), {th, std::nextafter(th, -HUGE_VAL),
                                     std::nextafter(th, HUGE_VAL)});
        }
        for (double g : gars) {
            p.tGar = g;
            expectGridSolveIsTheSolve(p, grid,
                                      "problem " + std::to_string(i) +
                                          " t_gar=" + std::to_string(g));
        }
    }
}

TEST(PipelineSolver, AnalyticTimeTracksSimulatedPipeline)
{
    // The case-formula makespan should approximate the DES makespan of
    // the corresponding task graph within a modest tolerance.
    sim::ClusterSpec cluster = sim::testbedB();
    PerfModelSet models = PerfModelSet::fromCluster(cluster);
    ParallelConfig par;
    par.numMp = cluster.gpusPerNode;
    par.numEsp = cluster.gpusPerNode;
    par.numEp = cluster.numNodes;

    LayerShape s;
    s.embed = 2048;
    s.hidden = 6144;
    s.numExperts = cluster.numNodes;
    Workload w = deriveWorkload(s, par);
    LayerCost lc = makeLayerCost(models, s, par);
    lc.fwd.routing = lc.fwd.order = lc.fwd.attention = 0.0;

    for (int r : {1, 2, 4, 8}) {
        PipelineProblem p = makeProblem(models, w, Phase::Forward);
        double analytic = analyticMoeTime(p, r);

        sim::TaskGraph g;
        detail::PipelineBuildOptions opts;
        detail::appendMoePhase(g, lc, models, Phase::Forward, r, opts, -1);
        double simulated = sim::Simulator{}.run(g).makespan;
        EXPECT_NEAR(simulated, analytic, 0.25 * analytic)
            << "r=" << r;
    }
}

TEST(PipelineSolver, LargerGarPushesTowardCase1)
{
    sim::ClusterSpec cluster = sim::testbedB();
    LayerShape s;
    s.embed = 1024;
    s.hidden = 2048;
    s.numExperts = cluster.numNodes;
    PipelineProblem p = problemFor(cluster, s, Phase::Backward, 0.0);
    PipelineSolution free = solvePipeline(p);
    p.tGar = 1000.0; // enormous gradient traffic
    PipelineSolution loaded = solvePipeline(p);
    EXPECT_EQ(loaded.caseId, 1);
    // The AllReduce dominates the loaded makespan; overlapping lets it
    // cost at most the free pipeline plus the full AllReduce (and the
    // solver may shrink r to cut AlltoAll startup under case 1).
    EXPECT_GE(loaded.tMoe, 1000.0);
    EXPECT_LE(loaded.tMoe, free.tMoe + 1000.0 + 1e-6);
}

TEST(PipelineSolver, OverlappableTimeIsPositiveAndBounded)
{
    sim::ClusterSpec cluster = sim::testbedA();
    LayerShape s;
    s.embed = 2048;
    s.hidden = 8192;
    s.numExperts = cluster.numNodes;
    PipelineProblem p = problemFor(cluster, s, Phase::Backward, 0.0);
    PipelineSolution sol = solvePipeline(p);
    EXPECT_GT(sol.tOlpMoe, 0.0);
    EXPECT_LE(sol.tOlpMoe, sol.tMoe + 1e-9);
}

TEST(PipelineSolver, ForwardAndBackwardDegreesOftenDiffer)
{
    // §2.3: 912 of 1458 configurations prefer different degrees per
    // phase. Require a healthy fraction on a coarse sub-grid.
    sim::ClusterSpec cluster = sim::testbedB();
    int total = 0, differ = 0;
    for (int64_t batch : {1, 2, 4}) {
        for (int64_t len : {256, 512, 1024}) {
            for (int64_t m : {1024, 2048, 4096}) {
                for (double hs : {2.0, 3.0, 4.0}) {
                    LayerShape s;
                    s.batch = batch;
                    s.seqLen = len;
                    s.embed = m;
                    s.hidden = static_cast<int64_t>(m * hs);
                    s.numExperts = cluster.numNodes;
                    PipelineProblem fwd =
                        problemFor(cluster, s, Phase::Forward);
                    PipelineProblem bwd =
                        problemFor(cluster, s, Phase::Backward, 1.0);
                    total++;
                    if (solvePipeline(fwd).r != solvePipeline(bwd).r)
                        differ++;
                }
            }
        }
    }
    EXPECT_GT(differ, total / 4)
        << differ << "/" << total << " configs with distinct degrees";
}

TEST(PipelineSolver, BackwardDoublesExpertWork)
{
    PerfModelSet models = PerfModelSet::fromCluster(sim::testbedA());
    LayerShape s;
    ParallelConfig par;
    Workload w = deriveWorkload(s, par);
    PipelineProblem f = makeProblem(models, w, Phase::Forward);
    PipelineProblem b = makeProblem(models, w, Phase::Backward);
    EXPECT_DOUBLE_EQ(b.exp.n, 2.0 * f.exp.n);
    EXPECT_DOUBLE_EQ(b.exp.alpha, 2.0 * f.exp.alpha);
    EXPECT_DOUBLE_EQ(b.a2a.n, f.a2a.n);
}

TEST(PipelineSolver, DegreeOneIsAlwaysFeasibleFallback)
{
    PipelineProblem p;
    p.a2a = {0.1, 1e-6, 100.0};
    p.ag = {0.1, 1e-6, 100.0};
    p.rs = {0.1, 1e-6, 100.0};
    p.exp = {0.1, 1e-6, 100.0};
    p.rMax = 1;
    PipelineSolution sol = solvePipeline(p);
    EXPECT_EQ(sol.r, 1);
    EXPECT_GT(sol.tMoe, 0.0);
}

} // namespace
} // namespace fsmoe::core
