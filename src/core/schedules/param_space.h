/**
 * @file
 * Search-space derivation for schedule parameters.
 *
 * PR 3 made every schedule's tunables machine-readable: a
 * ScheduleInfo declares each parameter's type, default, bounds, and
 * (since the tuner landed) whether an optimiser may search over it.
 * This header turns that declaration into something a search loop can
 * consume — a ParamSpace of axes, each either *enumerable* (a small
 * grid of integer values) or *continuous* (a [lo, hi] interval for the
 * differential-evolution fallback) — plus the two mappings a search
 * needs: grid enumeration and box point, each to a typed
 * ScheduleParams bag that ScheduleRegistry::tryCreate(space.schedule,
 * params, error) turns into a schedule without formatting or parsing
 * any spec text.
 *
 * Only parameters that are tunable AND carry finite bounds become
 * axes; everything else stays at its default (the bare schedule name
 * covers that configuration). Axes keyed "degree" are additionally
 * clamped to the query's rMax, since a pipeline degree beyond it is
 * never legal.
 *
 * Determinism: derivation and enumeration depend only on the declared
 * metadata and the arguments — no hashing, no randomness — so the
 * same registry yields the same candidates in the same order in every
 * process. All functions are pure; everything here is
 * thread-safe by construction.
 */
#ifndef FSMOE_CORE_SCHEDULES_PARAM_SPACE_H
#define FSMOE_CORE_SCHEDULES_PARAM_SPACE_H

#include <cstddef>
#include <string>
#include <vector>

#include "core/schedules/schedule_registry.h"

namespace fsmoe::core {

/** One searchable axis derived from a declared schedule parameter. */
struct ParamAxis
{
    std::string key; ///< Canonical parameter spelling, e.g. "degree".
    ScheduleParamType type = ScheduleParamType::Int;
    double lo = 0.0; ///< Inclusive lower bound (Bool: 0).
    double hi = 0.0; ///< Inclusive upper bound (Bool: 1).
    /// Number of grid values to enumerate, lo, lo + 1, ..., hi (Bool:
    /// false, true); 0 marks the axis continuous (searched by DE over
    /// [lo, hi] instead).
    size_t gridPoints = 0;

    bool continuous() const { return gridPoints == 0; }
};

/** A schedule's derived search space (axes in declared order). */
struct ParamSpace
{
    std::string schedule; ///< Canonical schedule name.
    std::vector<ParamAxis> axes;

    /** Whether any axis needs the continuous (DE) search. */
    bool continuous() const;

    /**
     * Number of bags a full grid enumeration would produce (product
     * of axis grid sizes; 1 for an empty space). Continuous axes
     * count as 1 — call continuous() first to pick the search mode.
     */
    size_t gridSize() const;
};

/**
 * Derive @p info's search space. Parameters are skipped (left at
 * their defaults) unless tunable with finite bounds. Int axes
 * spanning at most @p max_grid_per_axis values enumerate every
 * integer; wider Int axes and all Double axes are continuous. Bool
 * axes enumerate {false, true}. Axes keyed "degree" (any case) have
 * their upper bound clamped to @p degree_cap.
 */
ParamSpace deriveParamSpace(const ScheduleInfo &info, int degree_cap,
                            size_t max_grid_per_axis = 32);

/**
 * Cartesian-product enumeration of a fully-enumerable space into
 * parameter bags, first axis slowest, each axis's values ascending;
 * bag i builds the schedule whose canonical spec is the i-th grid spec
 * ("Tutel?degree=4"). An empty space yields one empty bag (the bare
 * schedule name). Returns at most @p max_count bags (the caller should
 * have checked gridSize(); the cap is a safety stop, and truncation
 * keeps a deterministic prefix). Continuous axes are a programming
 * error (fatal).
 */
std::vector<ScheduleParams> enumerateGridParams(const ParamSpace &space,
                                                size_t max_count);

/**
 * Map a point of the space's box — one coordinate per axis, in axis
 * order — to a parameter bag. Coordinates are clamped into [lo, hi];
 * Int axes round to nearest (llround), Bool axes threshold at 0.5,
 * Double axes keep the exact IEEE value (the canonical spec prints it
 * bit-exactly). This is the DE-candidate decoder: nearby points may
 * decode to the same parameters, which is fine — the tuner keys what
 * it has priced by Schedule::graphKey, so a revisit is not priced
 * again.
 */
ScheduleParams paramsFromPoint(const ParamSpace &space,
                               const std::vector<double> &x);

} // namespace fsmoe::core

#endif // FSMOE_CORE_SCHEDULES_PARAM_SPACE_H
