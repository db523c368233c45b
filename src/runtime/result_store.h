/**
 * @file
 * Persistent sweep results: a durable, diffable record of what a
 * scenario sweep measured, so evaluation artifacts survive the process
 * and regressions stay visible across commits and machines.
 *
 * A SweepResult is the serialisable projection of one ScenarioResult:
 * its Scenario, its makespan, and the per-op-class busy-time
 * breakdown. Results round-trip through JSON and CSV **bit-exactly** —
 * doubles are printed with 17 significant digits, which IEEE-754
 * binary64 guarantees to re-parse to the identical bit pattern — so a
 * re-read file can be compared with memcmp-level strictness and a
 * merged set of shard files is byte-identical to the unsharded file.
 *
 * Thread-safety: everything here is either a free function of its
 * arguments or a plain value type; all functions are safe to call
 * concurrently on distinct data. Determinism: writers emit no
 * timestamps, hostnames, or map-ordered content — serialising the
 * same results twice yields the same bytes.
 */
#ifndef FSMOE_RUNTIME_RESULT_STORE_H
#define FSMOE_RUNTIME_RESULT_STORE_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/sweep_engine.h"
#include "sim/task_graph.h"

namespace fsmoe::runtime {

/**
 * Terminal state of one scenario under the fault-tolerant runner
 * (service/sweep_server.h). Plain SweepEngine runs only ever produce Ok;
 * non-Ok records exist so a sweep that hit a poisoned scenario
 * *completes* — with the failure recorded explicitly — instead of
 * aborting and losing every healthy result.
 */
enum class ResultStatus
{
    Ok = 0,          ///< Simulated successfully.
    Failed = 1,      ///< Last attempt failed; retry budget not exhausted
                     ///< (only seen in journals mid-run, never final).
    Quarantined = 2, ///< Failed maxAttempts times; gave up.
};

/** Stable wire name ("ok", "failed", "quarantined"). */
const char *resultStatusName(ResultStatus status);

/** Inverse of resultStatusName; false on unknown names. */
bool parseResultStatus(const std::string &name, ResultStatus *out);

/** One persisted scenario outcome (one JSON object / CSV row). */
struct SweepResult
{
    /// The scenario this record describes; scenario.label() is the key
    /// diffs, merges and journal resumes join on. Parameterized
    /// schedule variants ("Tutel?degree=4") persist as distinct rows.
    Scenario scenario;

    // Outcome.
    double makespanMs = 0.0;
    /// Busy milliseconds per op class, indexed by sim::OpType.
    std::array<double, static_cast<size_t>(sim::OpType::NumOpTypes)>
        opTimeMs{};
    /// Busy milliseconds per physical link, indexed by sim::Link —
    /// per-link utilization is linkBusyMs / makespanMs. Serialised
    /// only when the writer is asked for link stats (see toJson /
    /// toCsv), so default output stays byte-identical to pre-link-stat
    /// files.
    std::array<double, static_cast<size_t>(sim::Link::NumLinks)>
        linkBusyMs{};
    /// True when linkBusyMs carries data (set by fromScenarioResult
    /// and by readers of files that contain the link columns).
    bool hasLinkStats = false;

    // Fault-tolerance outcome (service/sweep_server.h). Serialised only for
    // non-Ok records — an all-Ok result set emits byte-identical
    // output to a pre-status writer, which keeps every blessed
    // baseline valid. For non-Ok records makespanMs/opTimeMs are zero.
    ResultStatus status = ResultStatus::Ok;
    /// Evaluation attempts consumed (0 for plain-engine records).
    int attempts = 0;
    /// Last failure message for non-Ok records ("" when Ok).
    std::string error;

    /** Flatten an engine result into its persistent record. */
    static SweepResult fromScenarioResult(const ScenarioResult &r);
};

/** Convert a whole sweep, preserving order. */
std::vector<SweepResult>
toSweepResults(const std::vector<ScenarioResult> &results);

// ---------------------------------------------------------------------
// Serialisation. toJson/toCsv are pure and deterministic; the write*
// helpers wrap them with file IO and warn-and-return-false on failure.
// Readers accept exactly what the writers emit (plus arbitrary
// whitespace in JSON and unknown object fields, which are ignored for
// forward compatibility); on malformed input they return false and
// describe the problem in *error.
//
// include_link_stats opts rows into the per-link busy-time group
// ("link_busy_ms" JSON object / link_*_busy_ms CSV columns, fsmoe_sweep
// --link-util). Default off: the emitted bytes then match pre-link-stat
// writers exactly, which is what keeps the blessed demo-grid baseline
// byte-identical.
//
// Status follows the same optional-group discipline: JSON rows carry
// "status"/"attempts"/"error" members only when non-Ok, and the CSV
// writer appends the status,attempts,error columns iff the result set
// contains at least one non-Ok record. All-Ok output is byte-for-byte
// what a pre-status writer produced. The CSV reader takes the header
// in one pass, in the order toCsv writes it: the fixed columns, then
// the link group if present, then the status group if present; any
// other header is rejected.
// ---------------------------------------------------------------------

std::string toJson(const std::vector<SweepResult> &results,
                   bool include_link_stats = false);
std::string toCsv(const std::vector<SweepResult> &results,
                  bool include_link_stats = false);

/**
 * One result as a single-line JSON object — the journal's per-record
 * payload (runtime/journal). Link stats are included iff the record
 * carries them and status fields iff the record is non-Ok, so the
 * line is a deterministic function of the record alone.
 */
std::string toJsonRecord(const SweepResult &r);

/** Inverse of toJsonRecord (also accepts multi-line objects). */
bool parseJsonRecord(const std::string &text, SweepResult *out,
                     std::string *error);

bool parseJson(const std::string &text, std::vector<SweepResult> *out,
               std::string *error);
bool parseCsv(const std::string &text, std::vector<SweepResult> *out,
              std::string *error);

bool writeResultsJson(const std::string &path,
                      const std::vector<SweepResult> &results,
                      bool include_link_stats = false);
bool writeResultsCsv(const std::string &path,
                     const std::vector<SweepResult> &results,
                     bool include_link_stats = false);

/**
 * Read a result file, dispatching on its extension: ".csv" parses as
 * CSV, anything else as JSON.
 */
bool readResults(const std::string &path, std::vector<SweepResult> *out,
                 std::string *error);

/** Write a result file, dispatching on its extension as readResults. */
bool writeResults(const std::string &path,
                  const std::vector<SweepResult> &results,
                  bool include_link_stats = false);

// ---------------------------------------------------------------------
// Regression diffing.
// ---------------------------------------------------------------------

/** Per-scenario comparison of a baseline and a current makespan. */
struct DiffEntry
{
    std::string key;
    double baselineMs = 0.0;
    double currentMs = 0.0;

    double deltaMs() const { return currentMs - baselineMs; }
    /// Relative drift; 0 for an exact match (incl. baseline 0 == 0).
    double relDelta() const
    {
        if (currentMs == baselineMs)
            return 0.0;
        return baselineMs != 0.0 ? (currentMs - baselineMs) / baselineMs
                                 : 1.0;
    }
};

/**
 * Join of two result sets by scenario key. Matched entries keep the
 * baseline's order; unmatched keys land in onlyBaseline/onlyCurrent
 * (also in input order). Duplicate keys within one set are flagged so
 * a corrupted merge cannot silently pass a diff.
 */
struct DiffReport
{
    std::vector<DiffEntry> matched;
    std::vector<std::string> onlyBaseline; ///< In baseline, not current.
    std::vector<std::string> onlyCurrent;  ///< In current, not baseline.
    std::vector<std::string> duplicateKeys;

    /**
     * Entries whose |relDelta()| exceeds @p tolerance_frac. An entry
     * with a non-finite makespan (NaN or inf) on either side is always
     * included: such values mean the producing run was broken, and NaN
     * in particular would otherwise pass every tolerance silently.
     */
    std::vector<const DiffEntry *> exceeding(double tolerance_frac) const;

    /**
     * The gate: true iff the scenario sets are identical (no missing,
     * no extra, no duplicate keys) and every matched makespan drifted
     * by at most @p tolerance_frac relative to the baseline. Faster
     * results beyond tolerance also fail — any drift means the
     * baseline no longer describes the code and must be regenerated
     * deliberately.
     */
    bool passes(double tolerance_frac) const;
};

DiffReport diffResults(const std::vector<SweepResult> &baseline,
                       const std::vector<SweepResult> &current);

/**
 * Human-readable report: per-scenario deltas over tolerance, missing
 * and extra scenarios, and a PASS/FAIL summary line.
 */
std::string formatDiff(const DiffReport &report, double tolerance_frac);

// ---------------------------------------------------------------------
// Shard merging.
// ---------------------------------------------------------------------

/**
 * Concatenate shard result sets in the given order, verifying that no
 * scenario key appears twice. Because shardScenarios() slices the
 * grid into contiguous index ranges, merging the shards of one grid
 * in shard order reproduces the unsharded sweep exactly — including
 * its serialised bytes. Returns false (and sets *error) on duplicate
 * keys.
 */
bool mergeResults(const std::vector<std::vector<SweepResult>> &shards,
                  std::vector<SweepResult> *out, std::string *error);

} // namespace fsmoe::runtime

#endif // FSMOE_RUNTIME_RESULT_STORE_H
