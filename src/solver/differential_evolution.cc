#include "solver/differential_evolution.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "base/logging.h"

namespace fsmoe::solver {

namespace detail {

namespace {

constexpr size_t kMid = 156; ///< The standard's shift size m.

/** One word's twist, xoring in the matrix when y is odd, branch-free. */
uint64_t
twist(uint64_t word, uint64_t next)
{
    const uint64_t y = (word & ~0ULL << 31) | (next & ((1ULL << 31) - 1));
    return (y >> 1) ^ ((0 - (y & 1)) & 0xB5026F5AA96619E9ULL);
}

/** A generator that yields one fixed draw, to read off the mapping. */
struct FixedDraw
{
    using result_type = Mt19937_64::result_type;
    static constexpr result_type min() { return Mt19937_64::min(); }
    static constexpr result_type max() { return Mt19937_64::max(); }
    result_type operator()() const { return draw; }
    result_type draw;
};

} // namespace

Mt19937_64::Mt19937_64(uint64_t seed)
{
    state_[0] = seed;
    for (size_t i = 1; i < kN; ++i) {
        const uint64_t prev = state_[i - 1];
        state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
}

void
Mt19937_64::refill()
{
    // Word k takes word k + m of the block, old or already twisted,
    // exactly as the standard's one-word-at-a-time order does.
    size_t k = 0;
    for (; k < kN - kMid; ++k)
        state_[k] = state_[k + kMid] ^ twist(state_[k], state_[k + 1]);
    for (; k < kN - 1; ++k)
        state_[k] = state_[k + kMid - kN] ^ twist(state_[k], state_[k + 1]);
    state_[kN - 1] = state_[kMid - 1] ^ twist(state_[kN - 1], state_[0]);
    for (size_t i = 0; i < kN; ++i) {
        uint64_t z = state_[i];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
        z ^= (z << 37) & 0xFFF7EEE000000000ULL;
        out_[i] = z ^ (z >> 43);
    }
    next_ = 0;
}

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
    FSMOE_CHECK_ARG(config.populationSize >= 4, "DE population ",
                    config.populationSize, " is below 4");
    FSMOE_CHECK_ARG(!std::isnan(config.tolerance), "DE tolerance is NaN");
    const detail::CrossoverTest crosses(config.crossover);
    const int np = config.populationSize;

    detail::Mt19937_64 rng(config.seed);
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
