/**
 * @file
 * The retained naive degree-table scan.
 *
 * This is the pre-envelope DegreeTable::minTime / minMergedTime, kept
 * verbatim in behaviour: evaluate every row's makespan at t_gar and
 * take the first minimum under a strict <, exactly as
 * solvePipelineExhaustive and solvePipelineMerged scan r = 1..rMax.
 * The production table (src/core/pipeline_solver.cc) answers from
 * sorted lower envelopes instead and must stay *bit-identical* to
 * these loops: tests/pipeline_solver_test.cc checks both on seeded
 * random rows with tied thresholds, tied compute terms and NaN
 * thresholds.
 *
 * Keep this file dumb and obviously correct; it is the oracle.
 */
#ifndef FSMOE_TESTS_DEGREE_TABLE_REFERENCE_H
#define FSMOE_TESTS_DEGREE_TABLE_REFERENCE_H

#include <algorithm>
#include <limits>
#include <vector>

#include "core/pipeline_solver.h"

namespace fsmoe::core {

/** Row-scan minimum of the case-analysis makespan at @p t_gar. */
inline double
referenceMinTime(const std::vector<DegreeTable::Row> &rows, double t_gar)
{
    double best = std::numeric_limits<double>::infinity();
    for (const DegreeTable::Row &row : rows) {
        const double t =
            row.split.case1(t_gar) ? row.case1Base + t_gar : row.otherTime;
        if (t < best)
            best = t;
    }
    return best;
}

/** Row-scan minimum of the merged-channel makespan at @p t_gar. */
inline double
referenceMinMergedTime(const std::vector<DegreeTable::Row> &rows,
                       double t_gar)
{
    double best = std::numeric_limits<double>::infinity();
    for (const DegreeTable::Row &row : rows) {
        const double t = std::max(row.channelBase + t_gar, row.compute);
        if (t < best)
            best = t;
    }
    return best;
}

} // namespace fsmoe::core

#endif // FSMOE_TESTS_DEGREE_TABLE_REFERENCE_H
