/**
 * @file
 * Differential evolution (rand/1/bin) global optimiser.
 *
 * Paper §5.3 solves Eq. 5's gradient placement with differential
 * evolution; here the gradient partitioner solves it exactly, and the
 * schedule tuner searches continuous parameter spaces with DE. This is
 * a standard DE with box constraints; coupled constraints can be
 * imposed through a penalised objective.
 */
#ifndef FSMOE_SOLVER_DIFFERENTIAL_EVOLUTION_H
#define FSMOE_SOLVER_DIFFERENTIAL_EVOLUTION_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace fsmoe::solver {

/** Tuning knobs for differential evolution. */
struct DeConfig
{
    int populationSize = 32;   ///< Members per generation (>= 4).
    int maxGenerations = 200;  ///< Generation budget.
    double weight = 0.7;       ///< Differential weight F.
    double crossover = 0.9;    ///< Crossover probability CR.
    uint64_t seed = 0x0d5eedULL; ///< RNG seed for reproducibility.
    double tolerance = 1e-9;   ///< Stop when best improves less than this
                               ///< over a full generation sweep (not
                               ///< NaN; -inf never stops early).
};

/** Result of a DE run. */
struct DeResult
{
    std::vector<double> x; ///< Best member found.
    double value = 0.0;    ///< Objective at the best member.
    int generations = 0;   ///< Generations actually executed.
};

/**
 * A DE objective. Called with a candidate and a cutoff, it returns the
 * candidate's exact value whenever that value is <= the cutoff, and
 * otherwise may return any value > the cutoff: DE only compares a
 * trial against its parent, so a provably losing trial need not be
 * evaluated in full. An objective is free to ignore the cutoff.
 */
using DeObjective =
    std::function<double(const std::vector<double> &x, double cutoff)>;

/**
 * Minimise @p objective over the box [lo_i, hi_i]^d.
 *
 * The objective may implement coupled constraints by returning a
 * penalised value; candidates are always clamped into the box first.
 * Initial members are evaluated with cutoff +inf, and each trial with
 * its parent's value.
 */
DeResult differentialEvolution(const DeObjective &objective,
                               const std::vector<double> &lo,
                               const std::vector<double> &hi,
                               const DeConfig &config = {});

namespace detail {

/**
 * MT19937-64 yielding std::mt19937_64's words for every seed, so the
 * standard distributions make the same draws from it. It twists all
 * 312 state words at once, branch-free (the standard twists one per
 * draw and branches on its low bit), and tempers them into a buffer.
 */
class Mt19937_64
{
  public:
    using result_type = uint64_t;

    explicit Mt19937_64(uint64_t seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type operator()()
    {
        if (next_ == kN)
            refill();
        return out_[next_++];
    }

  private:
    static constexpr size_t kN = 312;

    /** Twist the state one block forward and temper it into out_. */
    void refill();

    uint64_t state_[kN];
    uint64_t out_[kN];
    size_t next_ = kN;
};

/**
 * DE's binomial crossover test `unit(rng) < cr`, decided on the raw
 * MT19937-64 draw instead: std::uniform_real_distribution<double>(0, 1)
 * maps draws to [0, 1) monotonically, so the draws below the smallest
 * one it maps to a value >= @p cr are exactly those that cross. Same
 * draws, same decisions, no conversion. Requires 0 <= cr <= 1.
 */
class CrossoverTest
{
  public:
    explicit CrossoverTest(double cr);

    bool operator()(uint64_t draw) const { return all_ || draw < threshold_; }

  private:
    uint64_t threshold_ = 0; ///< Smallest draw mapped to >= cr.
    bool all_ = false;       ///< cr == 1: every draw maps below it.
};

} // namespace detail

} // namespace fsmoe::solver

#endif // FSMOE_SOLVER_DIFFERENTIAL_EVOLUTION_H
