#include "solver/differential_evolution.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "base/logging.h"

namespace fsmoe::solver {

namespace detail {

namespace {

/** A generator that yields one fixed draw, to read off the mapping. */
struct FixedDraw
{
    using result_type = std::mt19937_64::result_type;
    static constexpr result_type min() { return std::mt19937_64::min(); }
    static constexpr result_type max() { return std::mt19937_64::max(); }
    result_type operator()() const { return draw; }
    result_type draw;
};

} // namespace

CrossoverTest::CrossoverTest(double cr)
{
    FSMOE_CHECK_ARG(cr >= 0.0 && cr <= 1.0, "DE crossover ", cr,
                    " is outside [0, 1]");
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const auto mapped = [&](uint64_t draw) {
        FixedDraw gen{draw};
        return unit(gen);
    };
    // The largest draw maps below 1, so only cr == 1 has no threshold.
    if (mapped(FixedDraw::max()) < cr) {
        all_ = true;
        return;
    }
    uint64_t lo = FixedDraw::min(), hi = FixedDraw::max();
    while (lo < hi) {
        const uint64_t mid = lo + (hi - lo) / 2;
        if (mapped(mid) >= cr)
            hi = mid;
        else
            lo = mid + 1;
    }
    threshold_ = lo;
}

} // namespace detail

DeResult
differentialEvolution(const DeObjective &objective,
                      const std::vector<double> &lo,
                      const std::vector<double> &hi, const DeConfig &config)
{
    const size_t d = lo.size();
    FSMOE_CHECK_ARG(hi.size() == d, "DE bound length mismatch");
    FSMOE_CHECK_ARG(d >= 1, "DE needs at least one dimension");
    for (size_t i = 0; i < d; ++i)
        FSMOE_CHECK_ARG(lo[i] <= hi[i], "DE bound ", i, " inverted");
    FSMOE_CHECK_ARG(std::isfinite(config.weight), "DE weight ",
                    config.weight, " is not finite");
    const detail::CrossoverTest crosses(config.crossover);
    const int np = std::max(config.populationSize, 4);

    std::mt19937_64 rng(config.seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    auto clamp = [&](std::vector<double> &x) {
        for (size_t i = 0; i < d; ++i)
            x[i] = std::clamp(x[i], lo[i], hi[i]);
    };

    std::vector<std::vector<double>> pop(np, std::vector<double>(d));
    std::vector<double> fitness(np);
    for (int m = 0; m < np; ++m) {
        for (size_t i = 0; i < d; ++i)
            pop[m][i] = lo[i] + unit(rng) * (hi[i] - lo[i]);
        fitness[m] =
            objective(pop[m], std::numeric_limits<double>::infinity());
    }

    auto best_it = std::min_element(fitness.begin(), fitness.end());
    int best = static_cast<int>(best_it - fitness.begin());

    DeResult result{pop[best], fitness[best], 0};
    std::vector<double> trial(d);
    std::uniform_int_distribution<int> pick(0, np - 1);
    std::uniform_int_distribution<size_t> pick_dim(0, d - 1);

    int stagnant = 0;
    for (int gen = 0; gen < config.maxGenerations; ++gen) {
        double gen_best_before = result.value;
        for (int m = 0; m < np; ++m) {
            int a, b, c;
            do { a = pick(rng); } while (a == m);
            do { b = pick(rng); } while (b == m || b == a);
            do { c = pick(rng); } while (c == m || c == a || c == b);
            size_t forced = pick_dim(rng);
            for (size_t i = 0; i < d; ++i) {
                // Every dimension takes its draw, forced or not.
                const bool cross = crosses(rng()) || i == forced;
                trial[i] = cross
                    ? pop[a][i] + config.weight * (pop[b][i] - pop[c][i])
                    : pop[m][i];
            }
            clamp(trial);
            // A trial that loses to its parent is discarded, so its
            // exact value above fitness[m] is never needed.
            double fv = objective(trial, fitness[m]);
            if (fv <= fitness[m]) {
                pop[m] = trial;
                fitness[m] = fv;
                if (fv < result.value) {
                    result.value = fv;
                    result.x = trial;
                }
            }
        }
        result.generations = gen + 1;
        // Converged once the best member has not improved for a while;
        // DE routinely stalls for a few generations before a jump, so
        // a single flat generation must not stop the search.
        if (gen_best_before - result.value < config.tolerance) {
            if (++stagnant >= 30)
                break;
        } else {
            stagnant = 0;
        }
    }
    return result;
}

} // namespace fsmoe::solver
