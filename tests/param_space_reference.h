/**
 * @file
 * The retained spec-text mapping of a ParamSpace.
 *
 * The tuner once built every candidate by formatting a spec string
 * and handing it to ScheduleRegistry::tryCreate(spec): a grid point
 * as "Tutel?degree=4", a DE point as "PipeMoE+Lina?chunkMB=<%.17g>&
 * degree=<llround>". These are those two formatters, kept verbatim in
 * behaviour. The production mapping (src/core/schedules/param_space.cc)
 * builds typed ScheduleParams bags instead and must build the same
 * schedules: tests/param_space_test.cc checks that each bag's
 * spec() and graphKey() byte-equal what tryCreate makes of these
 * strings, on every builtin's grid and on seeded box points.
 *
 * Keep this file dumb and obviously correct; it is the oracle.
 */
#ifndef FSMOE_TESTS_PARAM_SPACE_REFERENCE_H
#define FSMOE_TESTS_PARAM_SPACE_REFERENCE_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/schedules/param_space.h"

namespace fsmoe::core {

/**
 * The spec text of box point @p x: coordinates clamped into [lo, hi],
 * Int axes rounded to nearest, Bool axes thresholded at 0.5, Double
 * axes printed bit-exactly.
 */
inline std::string
referenceSpecFromPoint(const ParamSpace &space, const std::vector<double> &x)
{
    std::string spec = space.schedule;
    for (size_t i = 0; i < space.axes.size(); ++i) {
        const ParamAxis &a = space.axes[i];
        const double v = std::min(a.hi, std::max(a.lo, x[i]));
        spec += i == 0 ? '?' : '&';
        spec += a.key;
        spec += '=';
        switch (a.type) {
          case ScheduleParamType::Int:
            spec += std::to_string(static_cast<int64_t>(std::llround(v)));
            break;
          case ScheduleParamType::Bool:
            spec += v >= 0.5 ? "true" : "false";
            break;
          default: {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.17g", v);
            spec += buf;
            break;
          }
        }
    }
    return spec;
}

/**
 * Every grid spec of a fully-enumerable space, first axis slowest:
 * each Int axis takes every integer in [lo, hi] ascending, each Bool
 * axis false then true. An empty space gives the bare schedule name.
 */
inline std::vector<std::string>
referenceGridSpecs(const ParamSpace &space)
{
    std::vector<std::string> specs = {space.schedule};
    for (size_t i = 0; i < space.axes.size(); ++i) {
        const ParamAxis &a = space.axes[i];
        std::vector<std::string> values;
        if (a.type == ScheduleParamType::Bool) {
            values = {"false", "true"};
        } else {
            for (int64_t v = static_cast<int64_t>(a.lo);
                 v <= static_cast<int64_t>(a.hi); ++v)
                values.push_back(std::to_string(v));
        }
        std::vector<std::string> longer;
        for (const std::string &prefix : specs)
            for (const std::string &value : values)
                longer.push_back(prefix + (i == 0 ? '?' : '&') + a.key +
                                 '=' + value);
        specs = std::move(longer);
    }
    return specs;
}

} // namespace fsmoe::core

#endif // FSMOE_TESTS_PARAM_SPACE_REFERENCE_H
