#include "runtime/journal.h"

#include <cerrno>
#include <cstring>
#include <sstream>

#include <unistd.h>

#include "base/audit.h"
#include "base/fileio.h"
#include "base/logging.h"
#include "base/number.h"
#include "base/stats.h"
#include "runtime/fault.h"

namespace fsmoe::runtime {

namespace {

/** The record checksum: plain FNV-1a over the payload bytes. */
uint64_t
checksum(const std::string &payload)
{
    return audit::Fingerprint().mixBytes(payload).digest();
}

std::string
headerLine(uint64_t grid_fp, size_t grid_size)
{
    std::ostringstream oss;
    oss << "fsmoe-journal v1 grid=" << audit::hex16(grid_fp)
        << " n=" << grid_size;
    return oss.str();
}

bool
fileExists(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    std::fclose(f);
    return true;
}

/** "<index> <16-hex checksum> <payload>\n" for @p rec. */
std::string
recordLine(const JournalRecord &rec)
{
    const std::string payload = toJsonRecord(rec.result);
    return std::to_string(rec.index) + " " + audit::hex16(checksum(payload)) +
           " " + payload + "\n";
}

/**
 * Parse "<index> <16-hex checksum> <payload>"; checksum-verify and
 * JSON-parse the payload, and require the record to describe the
 * grid's scenario at that index (the checksum does not cover the
 * index). Any failure means this line — and everything after it — is
 * the torn tail.
 */
bool
parseRecordLine(const std::string &line, const std::vector<Scenario> &grid,
                size_t *index, SweepResult *result)
{
    const size_t sp1 = line.find(' ');
    if (sp1 == std::string::npos)
        return false;
    const size_t sp2 = line.find(' ', sp1 + 1);
    if (sp2 == std::string::npos || sp2 - sp1 - 1 != 16)
        return false;
    const std::string_view text(line);
    size_t idx = 0;
    if (!parseNumber(text.substr(0, sp1), &idx) || idx >= grid.size())
        return false;
    uint64_t sum = 0;
    if (!parseNumber(text.substr(sp1 + 1, 16), &sum, 16))
        return false;
    const std::string payload = line.substr(sp2 + 1);
    if (checksum(payload) != sum)
        return false;
    std::string error;
    if (!parseJsonRecord(payload, result, &error) ||
        result->scenario.label() != grid[idx].label())
        return false;
    *index = idx;
    return true;
}

} // namespace

Journal::~Journal()
{
    close();
}

uint64_t
Journal::gridFingerprint(const std::vector<Scenario> &grid)
{
    audit::Fingerprint fp;
    for (const Scenario &s : grid)
        fp.mixBytes(s.label()).mixBytes("\n");
    return fp.digest();
}

bool
Journal::open(const std::string &path, const std::vector<Scenario> &grid,
              bool resume, std::string *error)
{
    std::lock_guard<std::mutex> lock(mu_);
    FSMOE_ASSERT(file_ == nullptr, "journal already open");
    const uint64_t grid_fp = gridFingerprint(grid);
    const std::string header = headerLine(grid_fp, grid.size());
    recovered_.clear();
    gridSize_ = grid.size();
    path_ = path;

    const bool exists = fileExists(path);
    if (!resume && exists) {
        if (error != nullptr)
            *error = "journal '" + path +
                     "' already exists; pass --resume to continue it or "
                     "remove it to start over";
        return false;
    }

    if (resume && exists) {
        std::string text;
        if (!fileio::readTextFile(path, &text, error))
            return false;
        std::istringstream in(text);
        std::string line;
        if (!std::getline(in, line) || line != header) {
            if (error != nullptr)
                *error = "journal '" + path +
                         "' does not match this sweep (expected header \"" +
                         header + "\")";
            return false;
        }
        // Valid prefix survives; the first bad line starts the torn
        // tail and ends recovery.
        std::string keep = header + "\n";
        size_t dropped = 0;
        while (std::getline(in, line)) {
            size_t index = 0;
            SweepResult r;
            if (!parseRecordLine(line, grid, &index, &r)) {
                ++dropped;
                // Count the rest of the file as dropped too.
                while (std::getline(in, line))
                    ++dropped;
                break;
            }
            recovered_[index] = std::move(r); // last record wins
            keep += line + "\n";
        }
        if (dropped > 0) {
            // Rewrite the valid prefix atomically so the next crash
            // cannot compound a torn tail with another torn tail.
            if (!fileio::atomicWriteFile(path, keep, error))
                return false;
            stats::counter("robust.journal.tornRecords").inc(dropped);
            FSMOE_WARN("journal '", path, "': dropped ", dropped,
                       " torn/corrupt record(s); they will be re-run");
        }
        stats::counter("robust.journal.recovered").inc(recovered_.size());
    } else {
        // Fresh journal: land the header atomically before appending.
        if (!fileio::atomicWriteFile(path, header + "\n", error))
            return false;
    }

    // allowlisted nonatomic-write: the journal is an append-only log;
    // each batch is fsync'd, each record checksummed, and torn tails
    // are truncated on recovery (see file comment).
    file_ = std::fopen(path.c_str(), "ab");
    if (file_ == nullptr) {
        if (error != nullptr)
            *error = "cannot append to journal '" + path +
                     "': " + std::strerror(errno);
        return false;
    }
    return true;
}

bool
Journal::appendAll(const std::vector<JournalRecord> &batch,
                   std::string *error)
{
    if (batch.empty())
        return true;
    std::lock_guard<std::mutex> lock(mu_);
    FSMOE_ASSERT(file_ != nullptr, "journal not open");
    // The batch's bytes, cut short where a fault site ends the process.
    std::string text;
    size_t records = 0;
    bool die = false;
    for (const JournalRecord &rec : batch) {
        FSMOE_ASSERT(rec.index < gridSize_, "journal index out of range");
        const std::string line = recordLine(rec);
        if (fault::shouldInject(fault::Site::TornJournalWrite,
                                rec.result.scenario.label(), 0)) {
            // A torn write only exists because the process died
            // mid-append; manufacture exactly that: the records before
            // it, half of this one, then gone.
            text.append(line, 0, line.size() / 2);
            die = true;
            break;
        }
        text += line;
        ++records;
        if (fault::shouldKillAfterAppend()) {
            die = true; // this record is durable; nothing after it is
            break;
        }
    }

    const bool ok =
        std::fwrite(text.data(), 1, text.size(), file_) == text.size() &&
        std::fflush(file_) == 0 && ::fsync(::fileno(file_)) == 0;
    if (die)
        ::_exit(137);
    if (!ok) {
        if (error != nullptr)
            *error = "short write to journal '" + path_ +
                     "': " + std::strerror(errno);
        return false;
    }
    stats::counter("robust.journal.appends").inc(records);
    stats::counter("robust.journal.syncs").inc();
    return true;
}

bool
Journal::append(size_t index, const SweepResult &r, std::string *error)
{
    std::vector<JournalRecord> batch;
    batch.push_back({index, r});
    return appendAll(batch, error);
}

void
Journal::close()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (file_ != nullptr) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

} // namespace fsmoe::runtime
