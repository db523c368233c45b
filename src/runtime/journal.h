/**
 * @file
 * Append-only checkpoint journal for fault-tolerant sweeps.
 *
 * A journaled sweep (`fsmoe_sweep --journal FILE`) appends one record
 * per finished scenario. Records are group-committed: appendAll()
 * writes a batch (the supervisor's one poll round) and fsyncs it once,
 * and the supervisor counts none of them finished before that. A
 * SIGKILL at any instant loses nothing already written; a power loss
 * can lose at most the last batch's records, and a resume re-runs
 * them. The fault sites still act per record (see appendAll()).
 * `--resume` replays the journal and re-simulates only what is
 * missing; because every scenario's result is a pure function of its
 * Scenario, the resumed sweep's final `--out-json/--out-csv` is
 * byte-identical to an uninterrupted run.
 *
 * On-disk format (plain text, one record per line):
 *
 *   fsmoe-journal v1 grid=<16-hex> n=<gridSize>
 *   <index> <16-hex payload checksum> <one-line JSON SweepResult>
 *   ...
 *
 * `grid` is an FNV-1a fingerprint over the grid's scenario labels in
 * order, so a journal can never be resumed against a different sweep
 * — a mismatch is a hard error, not silent corruption. Each record's
 * checksum covers its JSON payload, not its index; a record that fails
 * the checksum, fails to parse, is out of range, or describes another
 * scenario than the grid's at its index marks the *torn tail*: the valid
 * prefix is kept (rewritten atomically via tmp+rename) and everything
 * from the first bad record on is dropped and re-simulated. This is
 * exactly the shape a crash mid-append leaves behind — fault
 * injection's `torn` site (runtime/fault.h) manufactures it on demand.
 *
 * Recovery semantics on resume: only records whose status is Ok count
 * as done. Failed/quarantined records are re-attempted — so a sweep
 * quarantined under fault injection, resumed with injection off,
 * converges to the clean run's bytes. For an index appended more than
 * once, the last record wins.
 *
 * Thread-safety: appends are internally locked, so concurrent workers
 * of one process may share a Journal. One journal file belongs to one
 * process at a time (the supervisor; isolated workers report results
 * over a pipe and never touch the file).
 */
#ifndef FSMOE_RUNTIME_JOURNAL_H
#define FSMOE_RUNTIME_JOURNAL_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/result_store.h"
#include "runtime/scenario.h"

namespace fsmoe::runtime {

/** One finished scenario as the journal records it. */
struct JournalRecord
{
    size_t index = 0; ///< Grid index.
    SweepResult result;
};

class Journal
{
  public:
    Journal() = default;
    ~Journal();
    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /** FNV-1a over the grid's labels in order — the header's grid=. */
    static uint64_t gridFingerprint(const std::vector<Scenario> &grid);

    /**
     * Open @p path for a sweep over @p grid. With @p resume and an
     * existing file: validate the header against the grid, load every
     * valid record (see class comment for torn-tail recovery), and
     * continue appending. Without @p resume the file must not already
     * exist — overwriting a journal by accident would destroy the very
     * state it exists to protect. Returns false with *error on
     * mismatch, corruption before any valid record, or IO failure.
     */
    bool open(const std::string &path, const std::vector<Scenario> &grid,
              bool resume, std::string *error);

    /**
     * Records recovered by open(#resume), keyed by grid index; later
     * appends are not reflected. Only Ok entries should be treated as
     * done (see class comment).
     */
    const std::map<size_t, SweepResult> &recovered() const
    {
        return recovered_;
    }

    /**
     * Append @p batch in order with one write and one fsync; every
     * record is durable when this returns true, and an empty batch
     * writes nothing. The fault-injection sites still act per record,
     * each terminating the process by design: a `torn` record is
     * written in half after the records before it, and `kill-after=K`
     * exits once the K-th record is synced, leaving the rest of the
     * batch unwritten. Bumps robust.journal.appends by the records
     * written and robust.journal.syncs by one.
     */
    bool appendAll(const std::vector<JournalRecord> &batch,
                   std::string *error);

    /** Append one finished scenario: appendAll() of a batch of one. */
    bool append(size_t index, const SweepResult &r, std::string *error);

    /** Close the underlying file (idempotent; also run by ~Journal). */
    void close();

    const std::string &path() const { return path_; }

  private:
    std::mutex mu_;
    std::string path_;
    std::FILE *file_ = nullptr;
    size_t gridSize_ = 0;
    std::map<size_t, SweepResult> recovered_;
};

} // namespace fsmoe::runtime

#endif // FSMOE_RUNTIME_JOURNAL_H
