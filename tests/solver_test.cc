/**
 * @file
 * Unit tests for the numeric solvers: least squares, golden-section
 * search, differential evolution and its MT19937-64 generator.
 */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "solver/differential_evolution.h"
#include "solver/least_squares.h"
#include "solver/minimize.h"

namespace fsmoe::solver {
namespace {

TEST(LeastSquares, RecoversExactLine)
{
    std::vector<double> xs = {1, 2, 3, 4, 5};
    std::vector<double> ys;
    for (double x : xs)
        ys.push_back(0.5 + 2.0 * x);
    LineFit fit = fitLine(xs, ys);
    EXPECT_NEAR(fit.intercept, 0.5, 1e-12);
    EXPECT_NEAR(fit.slope, 2.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LeastSquares, NoisyFitHasHighR2)
{
    std::vector<double> xs, ys;
    for (int i = 1; i <= 24; ++i) {
        double x = i * 1048576.0;
        xs.push_back(x);
        // +-0.5% deterministic wiggle.
        double noise = 1.0 + 0.005 * std::sin(i * 1.7);
        ys.push_back((0.3 + 2.2e-7 * x) * noise);
    }
    LineFit fit = fitLine(xs, ys);
    EXPECT_NEAR(fit.slope, 2.2e-7, 2e-9);
    EXPECT_GT(fit.r2, 0.999);
}

TEST(LeastSquares, FlatDataGivesZeroSlopePerfectR2)
{
    std::vector<double> xs = {1, 2, 3};
    std::vector<double> ys = {4, 4, 4};
    LineFit fit = fitLine(xs, ys);
    EXPECT_NEAR(fit.slope, 0.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 4.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(GoldenSection, FindsQuadraticMinimum)
{
    auto f = [](double x) { return (x - 2.7) * (x - 2.7) + 1.0; };
    Minimum m = goldenSection(f, 0.0, 10.0);
    EXPECT_NEAR(m.x, 2.7, 1e-4);
    EXPECT_NEAR(m.value, 1.0, 1e-8);
}

TEST(DifferentialEvolution, SolvesSphere)
{
    auto sphere = [](const std::vector<double> &x, double) {
        double s = 0.0;
        for (double v : x)
            s += (v - 1.5) * (v - 1.5);
        return s;
    };
    std::vector<double> lo(4, -10.0), hi(4, 10.0);
    DeResult r = differentialEvolution(sphere, lo, hi);
    EXPECT_LT(r.value, 1e-3);
    for (double v : r.x)
        EXPECT_NEAR(v, 1.5, 0.05);
}

TEST(DifferentialEvolution, SolvesRosenbrock2D)
{
    auto rosen = [](const std::vector<double> &x, double) {
        double a = 1.0 - x[0];
        double b = x[1] - x[0] * x[0];
        return a * a + 100.0 * b * b;
    };
    std::vector<double> lo(2, -2.0), hi(2, 2.0);
    DeConfig cfg;
    cfg.maxGenerations = 400;
    DeResult r = differentialEvolution(rosen, lo, hi, cfg);
    EXPECT_LT(r.value, 1e-2);
}

TEST(DifferentialEvolution, RespectsBoxBounds)
{
    auto f = [](const std::vector<double> &x, double) { return -x[0]; };
    std::vector<double> lo = {0.0}, hi = {2.0};
    DeResult r = differentialEvolution(f, lo, hi);
    EXPECT_NEAR(r.x[0], 2.0, 1e-6);
}

TEST(DifferentialEvolution, DeterministicGivenSeed)
{
    auto f = [](const std::vector<double> &x, double) {
        return std::sin(x[0]) + x[0] * x[0] * 0.1;
    };
    std::vector<double> lo = {-5.0}, hi = {5.0};
    DeResult a = differentialEvolution(f, lo, hi);
    DeResult b = differentialEvolution(f, lo, hi);
    EXPECT_EQ(a.x[0], b.x[0]);
    EXPECT_EQ(a.value, b.value);
}

uint64_t
bitsOf(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

TEST(DifferentialEvolution, CutoffObjectiveKeepsEveryBit)
{
    // An objective may answer "loses" for a trial worse than its
    // cutoff without computing it. DE must then take the very same
    // path: the honouring objective below returns only a barely-larger
    // value for such trials, yet the result matches the objective that
    // ignores the cutoff bit for bit.
    const auto shifted_sphere = [](const std::vector<double> &x) {
        double s = 0.0;
        for (size_t i = 0; i < x.size(); ++i)
            s += (x[i] - 0.25 * i) * (x[i] - 0.25 * i) + std::sin(3.0 * x[i]);
        return s;
    };
    for (size_t d : {1, 3, 8, 24}) {
        for (uint64_t seed : {1ULL, 0x0d5eedULL, 977ULL}) {
            DeConfig cfg;
            cfg.populationSize = 12;
            cfg.maxGenerations = 40;
            cfg.seed = seed;
            std::vector<double> lo(d, -4.0), hi(d, 4.0);
            const DeResult full = differentialEvolution(
                [&](const std::vector<double> &x, double) {
                    return shifted_sphere(x);
                },
                lo, hi, cfg);
            int cut = 0;
            const DeResult pruned = differentialEvolution(
                [&](const std::vector<double> &x, double cutoff) {
                    const double v = shifted_sphere(x);
                    if (v <= cutoff)
                        return v;
                    ++cut;
                    return std::nextafter(cutoff, HUGE_VAL);
                },
                lo, hi, cfg);
            EXPECT_GT(cut, 0);
            EXPECT_EQ(bitsOf(full.value), bitsOf(pruned.value));
            EXPECT_EQ(full.generations, pruned.generations);
            ASSERT_EQ(full.x.size(), pruned.x.size());
            for (size_t i = 0; i < d; ++i)
                EXPECT_EQ(bitsOf(full.x[i]), bitsOf(pruned.x[i]))
                    << "d=" << d << " seed=" << seed << " i=" << i;
        }
    }
}

/** A generator that yields one fixed draw. */
struct FixedDraw
{
    using result_type = std::mt19937_64::result_type;
    static constexpr result_type min() { return std::mt19937_64::min(); }
    static constexpr result_type max() { return std::mt19937_64::max(); }
    result_type operator()() const { return draw; }
    result_type draw;
};

TEST(DifferentialEvolution, CrossoverTestAgreesWithTheUniformDraw)
{
    // The raw-draw test must make the decision unit(rng) < CR makes,
    // on a stream of draws and on every draw near the boundary.
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (double cr : {0.0, 0.3, 0.7, 0.9, 1.0}) {
        const detail::CrossoverTest crosses(cr);
        std::mt19937_64 raw(42), mapped(42);
        int disagree = 0;
        for (int i = 0; i < 1000000; ++i)
            disagree += crosses(raw()) != (unit(mapped) < cr);
        EXPECT_EQ(disagree, 0) << "CR=" << cr;

        // Every draw within 4096 of CR * 2^64, where the decision flips.
        const double scaled = std::ldexp(cr, 64);
        const uint64_t center = scaled < std::ldexp(1.0, 64)
                                    ? static_cast<uint64_t>(scaled)
                                    : FixedDraw::max();
        const uint64_t span = 4096;
        const uint64_t first = center - std::min(center, span);
        const uint64_t last = center + std::min(FixedDraw::max() - center,
                                                span);
        for (FixedDraw gen{first};; ++gen.draw) {
            EXPECT_EQ(crosses(gen.draw), unit(gen) < cr)
                << "CR=" << cr << " draw=" << gen.draw;
            if (gen.draw == last)
                break;
        }
        EXPECT_EQ(crosses(FixedDraw::min()), cr > 0.0);
        EXPECT_EQ(crosses(FixedDraw::max()), cr == 1.0);
    }
}

TEST(Mt19937_64, IsTheStandardEngineThroughEveryDistributionDeUses)
{
    // Seeds 0, 1, DeConfig's default, the tuner's and the largest;
    // 2,000 draws cross six block refills.
    for (uint64_t seed :
         {0ULL, 1ULL, 0x0d5eedULL, 0xf500e7ULL, ~0ULL}) {
        std::mt19937_64 std_raw(seed), std_unit(seed), std_int(seed),
            std_size(seed), std_cross(seed);
        detail::Mt19937_64 raw(seed), unit_gen(seed), int_gen(seed),
            size_gen(seed), cross_gen(seed);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        std::uniform_int_distribution<int> pick(0, 23);
        std::uniform_int_distribution<size_t> pick_dim(0, 23);
        const detail::CrossoverTest crosses(0.9);
        for (int i = 0; i < 2000; ++i) {
            ASSERT_EQ(raw(), std_raw()) << "seed " << seed << " draw " << i;
            ASSERT_EQ(bitsOf(unit(unit_gen)), bitsOf(unit(std_unit)))
                << "seed " << seed << " draw " << i;
            ASSERT_EQ(pick(int_gen), pick(std_int))
                << "seed " << seed << " draw " << i;
            ASSERT_EQ(pick_dim(size_gen), pick_dim(std_size))
                << "seed " << seed << " draw " << i;
            ASSERT_EQ(crosses(cross_gen()), crosses(std_cross()))
                << "seed " << seed << " draw " << i;
        }
    }
}

/** FNV-1a over the bits of a DeResult's x, value and generations. */
uint64_t
digestOf(const DeResult &r)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&](uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            h ^= (word >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (double v : r.x)
        mix(bitsOf(v));
    mix(bitsOf(r.value));
    mix(static_cast<uint64_t>(r.generations));
    return h;
}

TEST(DifferentialEvolution, ResultsKeepTheirBits)
{
    // Digests recorded with std::mt19937_64 driving DE: the generator
    // may change only how its words are made, never which words.
    const auto sphere = [](const std::vector<double> &x, double) {
        double s = 0.0;
        for (double v : x)
            s += (v - 1.5) * (v - 1.5);
        return s;
    };
    const DeResult small = differentialEvolution(
        sphere, std::vector<double>(4, -10.0), std::vector<double>(4, 10.0));
    EXPECT_EQ(digestOf(small), 0x2787708d763aeafdULL);

    // The gradient partition's shape: 24 layers' byte shares under a
    // coupled budget, population 24 x 80 generations.
    const auto partition_like = [](const std::vector<double> &x, double) {
        double load = 0.0, t = 0.0;
        for (size_t i = 0; i < x.size(); ++i) {
            load += x[i];
            t += std::max(0.25 + 0.05 * static_cast<double>(i % 7),
                          0.08 * x[i]);
        }
        return t + 2.0 * std::abs(load - 48.0);
    };
    DeConfig cfg;
    cfg.populationSize = 24;
    cfg.maxGenerations = 80;
    const DeResult wide = differentialEvolution(
        partition_like, std::vector<double>(24, 0.0),
        std::vector<double>(24, 8.0), cfg);
    EXPECT_EQ(digestOf(wide), 0x21512cef2f260af2ULL);
}

TEST(DifferentialEvolutionDeathTest, RejectsInvalidConfig)
{
    const auto f = [](const std::vector<double> &x, double) { return x[0]; };
    const std::vector<double> lo = {0.0}, hi = {1.0};
    const auto run = [&](double crossover, double weight) {
        DeConfig cfg;
        cfg.crossover = crossover;
        cfg.weight = weight;
        differentialEvolution(f, lo, hi, cfg);
    };
    EXPECT_DEATH(run(std::nan(""), 0.7), "crossover");
    EXPECT_DEATH(run(-0.1, 0.7), "crossover");
    EXPECT_DEATH(run(1.5, 0.7), "crossover");
    EXPECT_DEATH(run(0.9, std::nan("")), "weight");
    EXPECT_DEATH(run(0.9, HUGE_VAL), "weight");
}

TEST(DifferentialEvolutionDeathTest, RejectsASmallPopulationAndNanTolerance)
{
    // DE needs a parent and three distinct donors; a smaller population
    // was once run as 4 members while caches keyed the raw value. A NaN
    // tolerance would silently disable early stopping.
    const auto f = [](const std::vector<double> &x, double) { return x[0]; };
    const std::vector<double> lo = {0.0}, hi = {1.0};
    const auto run = [&](int population, double tolerance) {
        DeConfig cfg;
        cfg.populationSize = population;
        cfg.tolerance = tolerance;
        differentialEvolution(f, lo, hi, cfg);
    };
    EXPECT_DEATH(run(3, 1e-9), "population");
    EXPECT_DEATH(run(0, 1e-9), "population");
    EXPECT_DEATH(run(-1, 1e-9), "population");
    EXPECT_DEATH(run(4, std::nan("")), "tolerance");
    // -inf never stops early, and is legal.
    run(4, -HUGE_VAL);
}

TEST(DifferentialEvolution, FullCrossoverStillSolves)
{
    // CR = 1 crosses every dimension (and still takes every draw).
    DeConfig cfg;
    cfg.crossover = 1.0;
    std::vector<double> lo(3, -5.0), hi(3, 5.0);
    const DeResult r = differentialEvolution(
        [](const std::vector<double> &x, double) {
            return (x[0] - 1.0) * (x[0] - 1.0) + x[1] * x[1] +
                   (x[2] + 2.0) * (x[2] + 2.0);
        },
        lo, hi, cfg);
    EXPECT_LT(r.value, 1e-3);
}

} // namespace
} // namespace fsmoe::solver
