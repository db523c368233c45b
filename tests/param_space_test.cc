/**
 * @file
 * Tests for the tuner's search-space mappings (core/schedules/
 * param_space.h): grid enumeration and box-point decoding build typed
 * ScheduleParams bags, and each bag must build the schedule its spec
 * text would, byte for byte. The oracle is the retained text mapping
 * in tests/param_space_reference.h.
 */
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/audit.h"
#include "core/schedules/param_space.h"
#include "core/schedules/schedule.h"
#include "core/schedules/schedule_registry.h"
#include "param_space_reference.h"
#include "runtime/scenario.h"

namespace fsmoe::core {
namespace {

/** The cost of fsmoe_tune's demo query, where many Lina chunk sizes
 *  share one graph key. */
ModelCost
tunerQueryCost()
{
    runtime::Scenario scenario;
    scenario.model = "gpt2xl-moe";
    scenario.cluster = "testbedA";
    return runtime::ScenarioRegistry::instance().makeCost(scenario);
}

/**
 * The box points decoded for @p space: every corner; lo + 0.5 on every
 * axis (a rounding tie on Int axes, the threshold on Bool ones); the
 * centre, and with chunkMB at its clamp bound (1 KB buckets); and
 * 1,000 seeded points drawn from a quarter span beyond each side of
 * the box, so clamping is exercised. Coordinates come from raw
 * mt19937_64 words, not a distribution, so they are the same bits on
 * every standard library.
 */
std::vector<std::vector<double>>
boxPoints(const ParamSpace &space)
{
    const size_t n = space.axes.size();
    std::vector<std::vector<double>> points;
    for (size_t mask = 0; mask < (size_t{1} << n); ++mask) {
        std::vector<double> x(n);
        for (size_t i = 0; i < n; ++i)
            x[i] = (mask >> i) & 1 ? space.axes[i].hi : space.axes[i].lo;
        points.push_back(std::move(x));
    }
    std::vector<double> tie(n), centre(n), clamp(n);
    bool has_chunk = false;
    for (size_t i = 0; i < n; ++i) {
        const ParamAxis &a = space.axes[i];
        tie[i] = a.lo + 0.5;
        centre[i] = (a.lo + a.hi) / 2;
        has_chunk = has_chunk || a.key == "chunkMB";
        clamp[i] = a.key == "chunkMB" ? 1.0 / 1024.0 : centre[i];
    }
    points.push_back(tie);
    points.push_back(centre);
    if (has_chunk)
        points.push_back(clamp);
    std::mt19937_64 rng(0x9a7a5eedu);
    for (int k = 0; k < 1000; ++k) {
        std::vector<double> x(n);
        for (size_t i = 0; i < n; ++i) {
            const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
            const double span = space.axes[i].hi - space.axes[i].lo;
            x[i] = space.axes[i].lo - span / 4 + u * 1.5 * span;
        }
        points.push_back(std::move(x));
    }
    return points;
}

TEST(ParamSpace, TypedPointsBuildTheTextPathsSchedules)
{
    const ScheduleRegistry &reg = ScheduleRegistry::instance();
    const ModelCost cost = tunerQueryCost();
    audit::Fingerprint digest;
    size_t checked = 0;
    // Build one schedule from @p text and from (@p name, @p params);
    // the text path's spec and graph key go into the digest.
    const auto expectSame = [&](const std::string &text,
                                const std::string &name,
                                const ScheduleParams &params) {
        std::string error;
        const auto want = reg.tryCreate(text, &error);
        ASSERT_NE(want, nullptr) << text << ": " << error;
        const auto got = reg.tryCreate(name, params, &error);
        ASSERT_NE(got, nullptr) << text << ": " << error;
        EXPECT_EQ(got->spec(), want->spec()) << text;
        EXPECT_EQ(got->graphKey(cost), want->graphKey(cost)) << text;
        digest.mix(want->spec()).mix(want->graphKey(cost));
        ++checked;
    };

    for (int r_max : {16, 4}) {
        digest.mix(r_max);
        for (const ScheduleInfo &info : reg.list()) {
            const ParamSpace space = deriveParamSpace(info, r_max);
            if (!space.continuous()) {
                const std::vector<std::string> texts =
                    referenceGridSpecs(space);
                const std::vector<ScheduleParams> bags =
                    enumerateGridParams(space, texts.size() + 1);
                ASSERT_EQ(bags.size(), texts.size()) << info.name;
                for (size_t i = 0; i < texts.size(); ++i)
                    expectSame(texts[i], space.schedule, bags[i]);
            }
            if (space.axes.empty())
                continue;
            for (const std::vector<double> &x : boxPoints(space))
                expectSame(referenceSpecFromPoint(space, x), space.schedule,
                           paramsFromPoint(space, x));
        }
    }
    // Per rMax: DS-MoE's bare name; Tutel and Tutel-Improved, their
    // degree grid (17 at rMax 16, 5 at 4) and 1,004 points each; Lina,
    // 1,007 points; the two FSMoEs, 2 grid specs and 1,004 points each.
    EXPECT_EQ(checked, (1 + 2 * (17 + 1004) + 1007 + 2 * (2 + 1004)) +
                           (1 + 2 * (5 + 1004) + 1007 + 2 * (2 + 1004)));
    // The text path's specs and graph keys, as recorded before the
    // tuner built its candidates from typed bags, and re-recorded when
    // a default graph key began filling in declared defaults: of these
    // specs only the bare DS-MoE leaves a defaulted parameter out.
    EXPECT_EQ(audit::hex16(digest.digest()), "c261fbef688c9acd");
}

} // namespace
} // namespace fsmoe::core
