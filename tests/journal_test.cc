/**
 * @file
 * Tests for the append-only checkpoint journal: round-trip recovery,
 * torn-tail truncation, corrupt-record handling, grid-mismatch
 * rejection, and the last-record-wins / only-Ok-counts-as-done resume
 * semantics, and group commit: a batch is one sync, and its torn and
 * kill-after sites still act per record. The fault sites get
 * end-to-end tests via fork: the child dies mid-append and the parent
 * recovers.
 */
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/fileio.h"
#include "base/stats.h"
#include "runtime/fault.h"
#include "runtime/journal.h"
#include "runtime/result_store.h"
#include "runtime/scenario.h"

namespace fsmoe::runtime {
namespace {

namespace fs = std::filesystem;

std::string
scratchPath(const char *name)
{
    fs::path p = fs::path(testing::TempDir()) / name;
    fs::remove(p);
    return p.string();
}

std::vector<Scenario>
smallGrid()
{
    return ScenarioGrid()
        .models({"gpt2xl-moe"})
        .clusters({"testbedA"})
        .numLayers({1})
        .build();
}

/** A fabricated (not simulated) record for grid scenario @p index. */
SweepResult
recordFor(const std::vector<Scenario> &grid, size_t index,
          double makespan)
{
    SweepResult r;
    r.scenario = grid[index];
    r.makespanMs = makespan;
    return r;
}

std::string
readAll(const std::string &path)
{
    std::string text, error;
    EXPECT_TRUE(fileio::readTextFile(path, &text, &error)) << error;
    return text;
}

TEST(Journal, RoundTripRecoversEveryAppendedRecord)
{
    const auto grid = smallGrid();
    const std::string path = scratchPath("journal_roundtrip.txt");

    Journal j;
    std::string error;
    ASSERT_TRUE(j.open(path, grid, /*resume=*/false, &error)) << error;
    EXPECT_TRUE(j.recovered().empty());
    for (size_t i = 0; i < grid.size(); ++i)
        ASSERT_TRUE(j.append(i, recordFor(grid, i, 10.0 + i), &error))
            << error;
    j.close();

    Journal back;
    ASSERT_TRUE(back.open(path, grid, /*resume=*/true, &error)) << error;
    ASSERT_EQ(back.recovered().size(), grid.size());
    for (size_t i = 0; i < grid.size(); ++i) {
        const auto it = back.recovered().find(i);
        ASSERT_NE(it, back.recovered().end()) << "missing index " << i;
        EXPECT_EQ(toJsonRecord(it->second),
                  toJsonRecord(recordFor(grid, i, 10.0 + i)));
    }
    std::remove(path.c_str());
}

TEST(Journal, RefusesToOverwriteAnExistingJournalWithoutResume)
{
    const auto grid = smallGrid();
    const std::string path = scratchPath("journal_exists.txt");

    Journal j;
    std::string error;
    ASSERT_TRUE(j.open(path, grid, /*resume=*/false, &error)) << error;
    j.close();

    Journal again;
    EXPECT_FALSE(again.open(path, grid, /*resume=*/false, &error));
    EXPECT_NE(error.find("--resume"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(Journal, RejectsResumeAgainstADifferentGrid)
{
    const auto grid = smallGrid();
    const std::string path = scratchPath("journal_gridmismatch.txt");

    Journal j;
    std::string error;
    ASSERT_TRUE(j.open(path, grid, /*resume=*/false, &error)) << error;
    ASSERT_TRUE(j.append(0, recordFor(grid, 0, 1.0), &error)) << error;
    j.close();

    const auto other = ScenarioGrid()
                           .models({"gpt2xl-moe"})
                           .clusters({"testbedB"})
                           .numLayers({1})
                           .build();
    ASSERT_NE(Journal::gridFingerprint(grid),
              Journal::gridFingerprint(other));
    Journal back;
    EXPECT_FALSE(back.open(path, other, /*resume=*/true, &error));
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());
}

TEST(Journal, TornTailIsDroppedAndTruncatedOnResume)
{
    const auto grid = smallGrid();
    const std::string path = scratchPath("journal_torn.txt");

    Journal j;
    std::string error;
    ASSERT_TRUE(j.open(path, grid, /*resume=*/false, &error)) << error;
    ASSERT_TRUE(j.append(0, recordFor(grid, 0, 1.0), &error)) << error;
    ASSERT_TRUE(j.append(1, recordFor(grid, 1, 2.0), &error)) << error;
    j.close();

    // Simulate a crash mid-append: a final record missing its tail.
    const std::string intact = readAll(path);
    const std::string full_line =
        "2 0123456789abcdef {\"model\":\"gpt2xl-moe\",\"truncated";
    ASSERT_TRUE(fileio::atomicWriteFile(
        path, intact + full_line.substr(0, 30), &error))
        << error;

    Journal back;
    ASSERT_TRUE(back.open(path, grid, /*resume=*/true, &error)) << error;
    EXPECT_EQ(back.recovered().size(), 2u);
    EXPECT_EQ(back.recovered().count(2), 0u);
    back.close();

    // Recovery must also have rewritten the file to the valid prefix,
    // so a second recovery sees a clean journal.
    EXPECT_EQ(readAll(path), intact);
    std::remove(path.c_str());
}

TEST(Journal, CorruptChecksumMarksTheTornTail)
{
    const auto grid = smallGrid();
    const std::string path = scratchPath("journal_corrupt.txt");

    Journal j;
    std::string error;
    ASSERT_TRUE(j.open(path, grid, /*resume=*/false, &error)) << error;
    for (size_t i = 0; i < 3; ++i)
        ASSERT_TRUE(j.append(i, recordFor(grid, i, 1.0 + i), &error))
            << error;
    j.close();

    // Flip one hex digit of record 1's checksum: record 1 *and* the
    // still-valid record 2 behind it are the torn tail — a corrupt
    // middle means append order can no longer be trusted.
    std::string text = readAll(path);
    std::vector<std::string> lines;
    for (size_t pos = 0; pos < text.size();) {
        size_t nl = text.find('\n', pos);
        lines.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    ASSERT_EQ(lines.size(), 4u); // header + 3 records
    std::string &rec1 = lines[2];
    size_t sum_pos = rec1.find(' ') + 1;
    rec1[sum_pos] = rec1[sum_pos] == '0' ? '1' : '0';
    std::string rebuilt;
    for (const std::string &l : lines)
        rebuilt += l + "\n";
    ASSERT_TRUE(fileio::atomicWriteFile(path, rebuilt, &error)) << error;

    Journal back;
    ASSERT_TRUE(back.open(path, grid, /*resume=*/true, &error)) << error;
    EXPECT_EQ(back.recovered().size(), 1u);
    EXPECT_EQ(back.recovered().count(0), 1u);
    std::remove(path.c_str());
}

TEST(Journal, RecordUnderAnotherGridIndexMarksTheTornTail)
{
    // The checksum covers the payload, not the leading index: a record
    // whose index was rewritten to another in-range slot still passes
    // it, so recovery must check that the record describes the grid's
    // scenario at that index.
    const auto grid = smallGrid();
    ASSERT_GE(grid.size(), 3u);
    const std::string path = scratchPath("journal_moved.txt");

    Journal j;
    std::string error;
    ASSERT_TRUE(j.open(path, grid, /*resume=*/false, &error)) << error;
    for (size_t i = 0; i < 3; ++i)
        ASSERT_TRUE(j.append(i, recordFor(grid, i, 1.0 + i), &error))
            << error;
    j.close();

    std::string text = readAll(path);
    const size_t rec1 = text.find("\n1 ");
    ASSERT_NE(rec1, std::string::npos);
    text[rec1 + 1] = '2'; // record 1 now claims slot 2
    ASSERT_TRUE(fileio::atomicWriteFile(path, text, &error)) << error;

    Journal back;
    ASSERT_TRUE(back.open(path, grid, /*resume=*/true, &error)) << error;
    EXPECT_EQ(back.recovered().size(), 1u);
    EXPECT_EQ(back.recovered().count(0), 1u);
    for (const auto &[index, r] : back.recovered())
        EXPECT_EQ(r.scenario.label(), grid[index].label()) << index;
    std::remove(path.c_str());
}

/** The record checksum Journal::append writes: FNV-1a, 16 hex digits. */
std::string
checksumHex(const std::string &payload)
{
    uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : payload) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

TEST(Journal, NonCanonicalNumbersMarkTheTornTail)
{
    // The writer emits "<decimal index> <16 lowercase hex> <payload>".
    // A line whose index carries a sign, or whose checksum is padded
    // with whitespace, was not written by Journal::append even when
    // its numbers parse to the right values — it starts the torn tail.
    const auto grid = smallGrid();
    ASSERT_GE(grid.size(), 2u);
    // A record whose checksum starts with 0, so padding it keeps its
    // value.
    std::string payload, sum;
    for (double ms = 1.0; sum.empty() || sum[0] != '0'; ms += 1.0) {
        payload = toJsonRecord(recordFor(grid, 1, ms));
        sum = checksumHex(payload);
    }
    const struct
    {
        std::string line;
        size_t recovered;
    } cases[] = {
        {"1 " + sum + " " + payload, 2},             // canonical: kept
        {"+1 " + sum + " " + payload, 1},            // signed index
        {"1 \t" + sum.substr(1) + " " + payload, 1}, // padded checksum
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.line.substr(0, 20));
        const std::string path = scratchPath("journal_noncanonical.txt");
        std::string error;
        Journal j;
        ASSERT_TRUE(j.open(path, grid, /*resume=*/false, &error)) << error;
        ASSERT_TRUE(j.append(0, recordFor(grid, 0, 1.0), &error)) << error;
        j.close();
        const std::string intact = readAll(path);
        ASSERT_TRUE(
            fileio::atomicWriteFile(path, intact + c.line + "\n", &error))
            << error;

        Journal back;
        ASSERT_TRUE(back.open(path, grid, /*resume=*/true, &error)) << error;
        EXPECT_EQ(back.recovered().size(), c.recovered);
        back.close();
        if (c.recovered == 1) {
            EXPECT_EQ(readAll(path), intact) << "torn tail not truncated";
        }
        std::remove(path.c_str());
    }
}

TEST(Journal, LastRecordWinsForAnIndexAppendedTwice)
{
    const auto grid = smallGrid();
    const std::string path = scratchPath("journal_lastwins.txt");

    Journal j;
    std::string error;
    ASSERT_TRUE(j.open(path, grid, /*resume=*/false, &error)) << error;
    SweepResult failed = recordFor(grid, 0, 0.0);
    failed.status = ResultStatus::Failed;
    failed.attempts = 1;
    failed.error = "transient";
    ASSERT_TRUE(j.append(0, failed, &error)) << error;
    ASSERT_TRUE(j.append(0, recordFor(grid, 0, 7.0), &error)) << error;
    j.close();

    Journal back;
    ASSERT_TRUE(back.open(path, grid, /*resume=*/true, &error)) << error;
    ASSERT_EQ(back.recovered().size(), 1u);
    const SweepResult &r = back.recovered().at(0);
    EXPECT_EQ(r.status, ResultStatus::Ok);
    EXPECT_DOUBLE_EQ(r.makespanMs, 7.0);
    std::remove(path.c_str());
}

TEST(Journal, NonOkRecordsRoundTripWithStatusIntact)
{
    const auto grid = smallGrid();
    const std::string path = scratchPath("journal_status.txt");

    Journal j;
    std::string error;
    ASSERT_TRUE(j.open(path, grid, /*resume=*/false, &error)) << error;
    SweepResult q = recordFor(grid, 1, 0.0);
    q.status = ResultStatus::Quarantined;
    q.attempts = 3;
    q.error = "injected eval fault (attempt 3)";
    ASSERT_TRUE(j.append(1, q, &error)) << error;
    j.close();

    Journal back;
    ASSERT_TRUE(back.open(path, grid, /*resume=*/true, &error)) << error;
    ASSERT_EQ(back.recovered().count(1), 1u);
    const SweepResult &r = back.recovered().at(1);
    EXPECT_EQ(r.status, ResultStatus::Quarantined);
    EXPECT_EQ(r.attempts, 3);
    EXPECT_EQ(r.error, q.error);
    std::remove(path.c_str());
}

TEST(Journal, DuplicateRecordsFromAReassignedShardAreIdempotent)
{
    // An index journalled twice — a scenario re-run after its result
    // was already written — carries identical bytes, since evaluation
    // is pure, and recovery must keep exactly one record per index.
    const auto grid = smallGrid();
    ASSERT_GE(grid.size(), 3u);
    const std::string path = scratchPath("journal_dup_shard.txt");

    Journal j;
    std::string error;
    ASSERT_TRUE(j.open(path, grid, /*resume=*/false, &error)) << error;
    // Indices 0 and 1 finish.
    ASSERT_TRUE(j.append(0, recordFor(grid, 0, 10.0), &error)) << error;
    ASSERT_TRUE(j.append(1, recordFor(grid, 1, 11.0), &error)) << error;
    // 1 is re-run (identical bytes), then 2 finishes.
    ASSERT_TRUE(j.append(1, recordFor(grid, 1, 11.0), &error)) << error;
    ASSERT_TRUE(j.append(2, recordFor(grid, 2, 12.0), &error)) << error;
    j.close();

    Journal back;
    ASSERT_TRUE(back.open(path, grid, /*resume=*/true, &error)) << error;
    ASSERT_EQ(back.recovered().size(), 3u);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(toJsonRecord(back.recovered().at(i)),
                  toJsonRecord(recordFor(grid, i, 10.0 + i)));
    std::remove(path.c_str());
}

TEST(Journal, OutOfOrderShardAppendsMergeToCanonicalBytes)
{
    // Workers stream results concurrently, so the journal's append
    // order interleaves arbitrarily. recovered() is keyed by grid
    // index, so rebuilding in index order must reproduce the exact
    // bytes of an unsharded in-order sweep.
    const auto grid = smallGrid();
    ASSERT_GE(grid.size(), 2u);
    const std::string path = scratchPath("journal_ooo_shard.txt");
    const size_t half = grid.size() / 2;

    Journal j;
    std::string error;
    ASSERT_TRUE(j.open(path, grid, /*resume=*/false, &error)) << error;
    // Shard B (back half) lands first, then shard A (front half).
    for (size_t i = half; i < grid.size(); ++i)
        ASSERT_TRUE(j.append(i, recordFor(grid, i, 10.0 + i), &error))
            << error;
    for (size_t i = 0; i < half; ++i)
        ASSERT_TRUE(j.append(i, recordFor(grid, i, 10.0 + i), &error))
            << error;
    j.close();

    Journal back;
    ASSERT_TRUE(back.open(path, grid, /*resume=*/true, &error)) << error;
    ASSERT_EQ(back.recovered().size(), grid.size());
    std::vector<SweepResult> rebuilt;
    for (const auto &kv : back.recovered()) // std::map: index order
        rebuilt.push_back(kv.second);
    std::vector<SweepResult> in_order;
    for (size_t i = 0; i < grid.size(); ++i)
        in_order.push_back(recordFor(grid, i, 10.0 + i));

    const std::string got = scratchPath("journal_ooo_got.json");
    const std::string want = scratchPath("journal_ooo_want.json");
    ASSERT_TRUE(writeResultsJson(got, rebuilt));
    ASSERT_TRUE(writeResultsJson(want, in_order));
    EXPECT_EQ(readAll(got), readAll(want));
    std::remove(path.c_str());
    std::remove(got.c_str());
    std::remove(want.c_str());
}

TEST(Journal, RejectsResumeWithMatchingFingerprintButDifferentN)
{
    // The header carries both grid=<fingerprint> and n=<size>. A
    // journal whose fingerprint happens to match but whose n differs
    // is from a different sweep and must be rejected outright — not
    // partially recovered.
    const auto grid = smallGrid();
    const std::string path = scratchPath("journal_badn.txt");

    Journal j;
    std::string error;
    ASSERT_TRUE(j.open(path, grid, /*resume=*/false, &error)) << error;
    ASSERT_TRUE(j.append(0, recordFor(grid, 0, 1.0), &error)) << error;
    j.close();

    // Tamper the header's n while leaving the fingerprint intact.
    std::string text = readAll(path);
    const std::string needle = " n=" + std::to_string(grid.size());
    const size_t pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, needle.size(),
                 " n=" + std::to_string(grid.size() + 1));
    ASSERT_TRUE(fileio::atomicWriteFile(path, text, &error)) << error;

    Journal back;
    EXPECT_FALSE(back.open(path, grid, /*resume=*/true, &error));
    EXPECT_NE(error.find("does not match"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(Journal, InjectedTornWriteIsRecoveredAfterProcessDeath)
{
    const auto grid = smallGrid();
    const std::string path = scratchPath("journal_torn_injected.txt");

    // The torn site kills the writing process by design, so exercise
    // it in a forked child and recover in the parent.
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        fault::FaultConfig cfg;
        std::string error;
        if (!fault::parseSpec("seed=1,torn=1", &cfg, &error))
            ::_exit(3);
        fault::configure(cfg);
        Journal j;
        if (!j.open(path, grid, /*resume=*/false, &error))
            ::_exit(4);
        j.append(0, recordFor(grid, 0, 5.0), &error); // must not return
        ::_exit(5);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 137) << "child survived the torn "
                                           "write it was told to die in";

    Journal back;
    std::string error;
    ASSERT_TRUE(back.open(path, grid, /*resume=*/true, &error)) << error;
    EXPECT_TRUE(back.recovered().empty())
        << "a half-written record must not be recovered";
    std::remove(path.c_str());
}

TEST(Journal, AppendAllWritesABatchWithOneSync)
{
    const auto grid = smallGrid();
    ASSERT_GE(grid.size(), 3u);
    const std::string path = scratchPath("journal_batch.txt");

    Journal j;
    std::string error;
    ASSERT_TRUE(j.open(path, grid, /*resume=*/false, &error)) << error;
    const uint64_t appends0 =
        stats::counter("robust.journal.appends").value();
    const uint64_t syncs0 = stats::counter("robust.journal.syncs").value();
    // Out of grid order, as a poll round's results arrive.
    const std::vector<JournalRecord> batch = {
        {2, recordFor(grid, 2, 12.0)},
        {0, recordFor(grid, 0, 10.0)},
        {1, recordFor(grid, 1, 11.0)},
    };
    ASSERT_TRUE(j.appendAll(batch, &error)) << error;
    EXPECT_EQ(stats::counter("robust.journal.appends").value() - appends0,
              3u);
    EXPECT_EQ(stats::counter("robust.journal.syncs").value() - syncs0, 1u);
    ASSERT_TRUE(j.appendAll({}, &error)) << error;
    EXPECT_EQ(stats::counter("robust.journal.syncs").value() - syncs0, 1u)
        << "an empty batch must not sync";
    j.close();

    // The records land in batch order, one line each after the header.
    std::istringstream text(readAll(path));
    std::vector<std::string> lines;
    for (std::string line; std::getline(text, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 4u);
    for (size_t k = 0; k < batch.size(); ++k)
        EXPECT_EQ(lines[k + 1].substr(0, 2),
                  std::to_string(batch[k].index) + " ");

    Journal back;
    ASSERT_TRUE(back.open(path, grid, /*resume=*/true, &error)) << error;
    ASSERT_EQ(back.recovered().size(), 3u);
    for (const JournalRecord &rec : batch) {
        const auto it = back.recovered().find(rec.index);
        ASSERT_NE(it, back.recovered().end()) << "missing " << rec.index;
        EXPECT_EQ(toJsonRecord(it->second), toJsonRecord(rec.result));
    }
    std::remove(path.c_str());
}

/**
 * Run appendAll(@p batch) in a forked child under fault spec @p spec
 * and return the child's exit status; the fault sites end it.
 */
int
appendAllInChild(const std::string &path, const std::vector<Scenario> &grid,
                 const std::vector<JournalRecord> &batch,
                 const std::string &spec)
{
    const pid_t pid = fork();
    if (pid == 0) {
        fault::FaultConfig cfg;
        std::string error;
        if (!fault::parseSpec(spec, &cfg, &error))
            ::_exit(3);
        fault::configure(cfg);
        Journal j;
        if (!j.open(path, grid, /*resume=*/false, &error))
            ::_exit(4);
        j.appendAll(batch, &error); // must not return
        ::_exit(5);
    }
    int status = 0;
    if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

TEST(Journal, KillAfterInsideABatchLeavesExactlyKRecords)
{
    const auto grid = smallGrid();
    ASSERT_GE(grid.size(), 4u);
    const std::string path = scratchPath("journal_batch_kill.txt");
    std::vector<JournalRecord> batch;
    for (size_t i = 0; i < 4; ++i)
        batch.push_back({i, recordFor(grid, i, 1.0 + i)});
    ASSERT_EQ(appendAllInChild(path, grid, batch, "kill-after=2"), 137)
        << "child survived the append it was told to die in";

    stats::Counter &torn = stats::counter("robust.journal.tornRecords");
    const uint64_t torn0 = torn.value();
    Journal back;
    std::string error;
    ASSERT_TRUE(back.open(path, grid, /*resume=*/true, &error)) << error;
    EXPECT_EQ(back.recovered().size(), 2u);
    EXPECT_EQ(back.recovered().count(0), 1u);
    EXPECT_EQ(back.recovered().count(1), 1u);
    EXPECT_EQ(torn.value(), torn0)
        << "the records after the kill point must not be written at all";
    std::remove(path.c_str());
}

TEST(Journal, TornRecordInsideABatchKeepsTheRecordsBeforeIt)
{
    const auto grid = smallGrid();
    const std::string path = scratchPath("journal_batch_torn.txt");
    // The torn site is a pure function of the label: pick two records
    // it spares and one it tears, and put the torn one third.
    const std::string spec = "seed=1,torn=0.5";
    fault::FaultConfig cfg;
    std::string error;
    ASSERT_TRUE(fault::parseSpec(spec, &cfg, &error)) << error;
    fault::configure(cfg);
    std::vector<JournalRecord> spared;
    std::vector<JournalRecord> torn;
    for (size_t i = 0; i < grid.size(); ++i)
        (fault::shouldInject(fault::Site::TornJournalWrite, grid[i].label(),
                             0)
             ? torn
             : spared)
            .push_back({i, recordFor(grid, i, 1.0 + i)});
    fault::reset();
    ASSERT_GE(spared.size(), 2u);
    ASSERT_GE(torn.size(), 1u);
    const std::vector<JournalRecord> batch = {spared[0], spared[1], torn[0],
                                              spared.back()};
    ASSERT_EQ(appendAllInChild(path, grid, batch, spec), 137)
        << "child survived the torn write it was told to die in";

    stats::Counter &dropped = stats::counter("robust.journal.tornRecords");
    const uint64_t dropped0 = dropped.value();
    Journal back;
    ASSERT_TRUE(back.open(path, grid, /*resume=*/true, &error)) << error;
    EXPECT_EQ(back.recovered().size(), 2u);
    EXPECT_EQ(back.recovered().count(spared[0].index), 1u);
    EXPECT_EQ(back.recovered().count(spared[1].index), 1u);
    EXPECT_EQ(dropped.value() - dropped0, 1u)
        << "exactly the half-written record is the torn tail";
    back.close();

    // Resume rewrote the file to its valid prefix: a second resume sees
    // the same two records and no torn tail.
    Journal again;
    ASSERT_TRUE(again.open(path, grid, /*resume=*/true, &error)) << error;
    EXPECT_EQ(again.recovered().size(), 2u);
    EXPECT_EQ(dropped.value() - dropped0, 1u);
    std::remove(path.c_str());
}

} // namespace
} // namespace fsmoe::runtime
