#include "core/schedules/param_space.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "base/logging.h"

namespace fsmoe::core {

namespace {

/** Case-insensitive test for the pipeline-degree key. */
bool
isDegreeKey(const std::string &key)
{
    if (key.size() != 6)
        return false;
    const char *want = "degree";
    for (size_t i = 0; i < 6; ++i)
        if (std::tolower(static_cast<unsigned char>(key[i])) != want[i])
            return false;
    return true;
}

/** Bit-exact canonical text of a Double axis value (matches the
 * registry's canonicalValue serialization). */
std::string
doubleText(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

bool
ParamSpace::continuous() const
{
    for (const ParamAxis &a : axes)
        if (a.continuous())
            return true;
    return false;
}

size_t
ParamSpace::gridSize() const
{
    size_t n = 1;
    for (const ParamAxis &a : axes)
        if (!a.continuous())
            n *= a.gridValues.size();
    return n;
}

ParamSpace
deriveParamSpace(const ScheduleInfo &info, int degree_cap,
                 size_t max_grid_per_axis)
{
    ParamSpace space;
    space.schedule = info.name;
    for (const ScheduleParamInfo &p : info.params) {
        if (!p.tunable)
            continue;
        if (p.type != ScheduleParamType::Bool && !p.bounded())
            continue;
        ParamAxis axis;
        axis.key = p.key;
        axis.type = p.type;
        switch (p.type) {
          case ScheduleParamType::Bool:
            axis.lo = 0.0;
            axis.hi = 1.0;
            axis.gridValues = {"false", "true"};
            break;
          case ScheduleParamType::Int: {
            int64_t lo = static_cast<int64_t>(std::ceil(p.minValue));
            int64_t hi = static_cast<int64_t>(std::floor(p.maxValue));
            if (isDegreeKey(p.key))
                hi = std::min<int64_t>(hi, degree_cap);
            if (hi < lo)
                continue; // clamp emptied the interval
            axis.lo = static_cast<double>(lo);
            axis.hi = static_cast<double>(hi);
            const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
            if (span <= max_grid_per_axis)
                for (int64_t v = lo; v <= hi; ++v)
                    axis.gridValues.push_back(std::to_string(v));
            break;
          }
          case ScheduleParamType::Double:
            axis.lo = p.minValue;
            axis.hi = p.maxValue;
            if (isDegreeKey(p.key))
                axis.hi = std::min<double>(axis.hi, degree_cap);
            if (axis.hi < axis.lo)
                continue;
            break;
        }
        space.axes.push_back(std::move(axis));
    }
    return space;
}

std::vector<std::string>
enumerateGridSpecs(const ParamSpace &space, size_t max_specs)
{
    std::vector<std::string> specs;
    if (space.axes.empty()) {
        if (max_specs > 0)
            specs.push_back(space.schedule);
        return specs;
    }
    for (const ParamAxis &a : space.axes)
        FSMOE_CHECK_ARG(!a.continuous(), "enumerateGridSpecs: axis '",
                        a.key, "' of schedule '", space.schedule,
                        "' is continuous");
    // Odometer over the axes, first axis slowest.
    std::vector<size_t> idx(space.axes.size(), 0);
    while (specs.size() < max_specs) {
        std::string spec = space.schedule;
        for (size_t i = 0; i < space.axes.size(); ++i) {
            spec += i == 0 ? '?' : '&';
            spec += space.axes[i].key;
            spec += '=';
            spec += space.axes[i].gridValues[idx[i]];
        }
        specs.push_back(std::move(spec));
        size_t i = space.axes.size();
        while (i > 0) {
            --i;
            if (++idx[i] < space.axes[i].gridValues.size())
                break;
            idx[i] = 0;
            if (i == 0)
                return specs; // odometer wrapped: enumeration complete
        }
    }
    return specs;
}

std::string
specFromPoint(const ParamSpace &space, const std::vector<double> &x)
{
    FSMOE_CHECK_ARG(x.size() == space.axes.size(),
                    "specFromPoint: point has ", x.size(),
                    " coordinates for ", space.axes.size(), " axes");
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
          default:
            spec += doubleText(v);
            break;
        }
    }
    return spec;
}

} // namespace fsmoe::core
