/**
 * @file
 * Plain-text sweep job specs for the service layer.
 *
 * A job names a sweep over the shared demo grid family (see
 * runtime/scenario.h demoGrid): which batch sizes, which schedule
 * specs, and where the merged result file must land. Jobs travel as
 * small plain-text documents so they can be written by hand, diffed
 * in CI, and submitted by `fsmoe_submit` with nothing but a
 * filesystem:
 *
 *   fsmoe-job v1
 *   name demo
 *   batches 1 2
 *   schedules FSMoE Tutel
 *   out /path/to/result.json
 *
 * `name` is an identifier ([A-Za-z0-9_-]); `batches` is a non-empty
 * integer list; `schedules` is optional (absent = every registered
 * schedule — the blessed demo grid); `out` is the mandatory merged
 * result destination. Unknown keys are errors, not warnings: a typo'd
 * key silently changing the sweep would poison the byte-identity
 * contract downstream.
 *
 * Determinism: serialize() emits keys in a fixed order, so
 * parse(serialize(j)) == j and job files are diffable.
 *
 * Thread-safety: plain value types and pure functions.
 */
#ifndef FSMOE_SERVICE_JOB_H
#define FSMOE_SERVICE_JOB_H

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/scenario.h"

namespace fsmoe::service {

/** One submitted sweep job. */
struct JobSpec
{
    std::string name;             ///< Job identifier ([A-Za-z0-9_-]).
    std::vector<int64_t> batches; ///< Batch axis; must be non-empty.
    /// Schedule specs; empty = every registered schedule (the demo
    /// grid default, which is what the blessed baseline sweeps).
    std::vector<std::string> schedules;
    std::string outPath; ///< Merged result destination (JSON).
};

/**
 * Parse a plain-text job document. Returns false with *error naming
 * the offending line on bad version lines, unknown keys, malformed
 * integers, or missing mandatory fields; *out is untouched on
 * failure.
 */
bool parseJobSpec(const std::string &text, JobSpec *out,
                  std::string *error);

/**
 * Parse a comma-separated --batches list ("1,2,4"). Each item is
 * checked like a job spec's batch: a plain decimal integer > 0 that
 * fits int64_t, with no sign, whitespace or overflow. Returns false on
 * an empty list or any bad item; *out is untouched on failure.
 */
bool parseBatchList(const std::string &text, std::vector<int64_t> *out);

/** Serialise @p job in canonical key order (round-trips via parse). */
std::string serializeJobSpec(const JobSpec &job);

/**
 * The scenario grid @p job sweeps: demoGrid(batches, schedules).
 * Deterministic — every process that builds a job's grid gets the
 * same scenarios in the same order, which is what lets daemon,
 * workers, and the resume path agree on grid indices.
 */
std::vector<runtime::Scenario> buildJobGrid(const JobSpec &job);

} // namespace fsmoe::service

#endif // FSMOE_SERVICE_JOB_H
