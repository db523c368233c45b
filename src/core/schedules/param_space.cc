#include "core/schedules/param_space.h"

#include <algorithm>
#include <cctype>
#include <cmath>

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
            n *= a.gridPoints;
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
            axis.gridPoints = 2;
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
                axis.gridPoints = static_cast<size_t>(span);
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

std::vector<ScheduleParams>
enumerateGridParams(const ParamSpace &space, size_t max_count)
{
    for (const ParamAxis &a : space.axes)
        FSMOE_CHECK_ARG(!a.continuous(), "enumerateGridParams: axis '",
                        a.key, "' of schedule '", space.schedule,
                        "' is continuous");
    std::vector<ScheduleParams> bags;
    // Odometer over the axes' grid points, first axis slowest.
    std::vector<double> x(space.axes.size());
    std::vector<size_t> idx(space.axes.size(), 0);
    while (bags.size() < max_count) {
        for (size_t i = 0; i < x.size(); ++i)
            x[i] = space.axes[i].lo + static_cast<double>(idx[i]);
        bags.push_back(paramsFromPoint(space, x));
        size_t i = idx.size();
        for (;;) {
            if (i == 0)
                return bags; // odometer wrapped: enumeration complete
            --i;
            if (++idx[i] < space.axes[i].gridPoints)
                break;
            idx[i] = 0;
        }
    }
    return bags;
}

ScheduleParams
paramsFromPoint(const ParamSpace &space, const std::vector<double> &x)
{
    FSMOE_CHECK_ARG(x.size() == space.axes.size(),
                    "paramsFromPoint: point has ", x.size(),
                    " coordinates for ", space.axes.size(), " axes");
    ScheduleParams params;
    for (size_t i = 0; i < space.axes.size(); ++i) {
        const ParamAxis &a = space.axes[i];
        const double v = std::min(a.hi, std::max(a.lo, x[i]));
        switch (a.type) {
          case ScheduleParamType::Int:
            params.setInt(a.key, std::llround(v));
            break;
          case ScheduleParamType::Bool:
            params.setBool(a.key, v >= 0.5);
            break;
          case ScheduleParamType::Double:
            params.setDouble(a.key, v);
            break;
        }
    }
    return params;
}

} // namespace fsmoe::core
