/**
 * @file
 * Tests for the sweep service layer: frame encoding/decoding and
 * reader poisoning (service/protocol.h), job spec parsing and
 * canonical serialisation (service/job.h), the crash-safe filesystem
 * job queue (service/job_queue.h), and the SweepServer supervisor:
 * strict Result-frame decoding, runJob's merged output byte-identical
 * to the plain SweepEngine, and runGrid's retry, quarantine, resume,
 * graceful-stop and healing paths (eval error, worker crash, hang,
 * disconnect, supervisor death) under deterministic fault injection.
 */
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/fileio.h"
#include "base/interrupt.h"
#include "base/sanitizers.h"
#include "base/stats.h"
#include "runtime/fault.h"
#include "runtime/journal.h"
#include "runtime/result_store.h"
#include "runtime/sweep_engine.h"
#include "service/job.h"
#include "service/job_queue.h"
#include "service/protocol.h"
#include "service/sweep_server.h"

namespace fsmoe::service {
namespace {

namespace fs = std::filesystem;

std::string
scratchDir(const char *name)
{
    fs::path p = fs::path(testing::TempDir()) / name;
    fs::remove_all(p);
    return p.string();
}

std::string
scratchPath(const char *name)
{
    fs::path p = fs::path(testing::TempDir()) / name;
    fs::remove(p);
    return p.string();
}

std::string
readAll(const std::string &path)
{
    std::string text, error;
    EXPECT_TRUE(fileio::readTextFile(path, &text, &error)) << error;
    return text;
}

/** The clean records of @p grid, from the plain engine. */
std::vector<runtime::SweepResult>
cleanRecords(const std::vector<runtime::Scenario> &grid)
{
    runtime::SweepEngine engine({/*numThreads=*/1});
    return runtime::toSweepResults(engine.run(grid));
}

// ---- protocol ------------------------------------------------------

TEST(ServiceProtocol, FramesRoundTripThroughTheReaderInOrder)
{
    const std::vector<Frame> sent = {
        {FrameType::Hello, "3"},
        {FrameType::EvalError, "4 injected eval fault\n(attempt 1)"},
        {FrameType::Assign, "7 2"},
        {FrameType::Result, "10 {\"model\":\"m\"}"},
        {FrameType::Shutdown, ""},
    };
    std::string wire;
    for (const Frame &f : sent)
        wire += encodeFrame(f);

    // Feed in deliberately awkward 3-byte chunks: partial length
    // prefixes and split bodies must all reassemble.
    FrameReader reader;
    std::vector<Frame> got;
    std::string error;
    for (size_t i = 0; i < wire.size(); i += 3) {
        reader.feed(wire.data() + i, std::min<size_t>(3, wire.size() - i));
        Frame f;
        while (reader.next(&f, &error))
            got.push_back(f);
        ASSERT_TRUE(error.empty()) << error;
    }
    ASSERT_EQ(got.size(), sent.size());
    for (size_t i = 0; i < sent.size(); ++i) {
        EXPECT_EQ(got[i].type, sent[i].type);
        EXPECT_EQ(got[i].body, sent[i].body);
    }
    EXPECT_EQ(reader.pendingBytes(), 0u);
}

TEST(ServiceProtocol, IncompleteFrameStaysBufferedWithoutError)
{
    const std::string wire = encodeFrame({FrameType::Hello, "worker-1"});
    FrameReader reader;
    reader.feed(wire.data(), wire.size() - 1); // hold back one byte
    Frame f;
    std::string error;
    EXPECT_FALSE(reader.next(&f, &error));
    EXPECT_TRUE(error.empty()) << error;
    reader.feed(wire.data() + wire.size() - 1, 1);
    ASSERT_TRUE(reader.next(&f, &error)) << error;
    EXPECT_EQ(f.body, "worker-1");
}

TEST(ServiceProtocol, OversizedLengthPoisonsTheReaderPermanently)
{
    // A length prefix beyond kMaxFrameBytes means the stream framing
    // is garbage; everything after it is untrustworthy.
    std::string wire = "\xff\xff\xff\xff";
    FrameReader reader;
    reader.feed(wire.data(), wire.size());
    Frame f;
    std::string error;
    EXPECT_FALSE(reader.next(&f, &error));
    EXPECT_FALSE(error.empty());

    // Even a subsequently-fed valid frame must not decode.
    const std::string good = encodeFrame({FrameType::Hello, "1"});
    reader.feed(good.data(), good.size());
    error.clear();
    EXPECT_FALSE(reader.next(&f, &error));
    EXPECT_FALSE(error.empty());
}

TEST(ServiceProtocol, UnknownTypeBytePoisonsTheReader)
{
    Frame bogus{static_cast<FrameType>('Z'), "payload"};
    const std::string wire = encodeFrame(bogus);
    FrameReader reader;
    reader.feed(wire.data(), wire.size());
    Frame f;
    std::string error;
    EXPECT_FALSE(reader.next(&f, &error));
    EXPECT_NE(error.find("type"), std::string::npos) << error;
}

TEST(ServiceProtocol, ValidFrameTypeMatchesTheEnum)
{
    EXPECT_TRUE(validFrameType('H'));
    EXPECT_TRUE(validFrameType('S'));
    EXPECT_TRUE(validFrameType('R'));
    // No Config frame: workers inherit the grid and options via fork.
    EXPECT_FALSE(validFrameType('C'));
    // No end-of-batch frame: an Assign names one scenario.
    EXPECT_FALSE(validFrameType('D'));
    EXPECT_FALSE(validFrameType('Z'));
    EXPECT_FALSE(validFrameType('\0'));
}

TEST(ServiceProtocol, SendToAClosedPeerFailsWithoutSigpipe)
{
    // A frame to a worker that already died must come back as a failed
    // send the supervisor can heal, not a SIGPIPE that kills it.
    std::signal(SIGPIPE, SIG_DFL);
    int sv[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    close(sv[1]);
    EXPECT_FALSE(sendFrame(sv[0], Frame{FrameType::Assign, "0 1"}));
    EXPECT_FALSE(sendFrame(sv[0], Frame{FrameType::Shutdown, ""}));
    close(sv[0]);
}

// ---- job specs -----------------------------------------------------

TEST(ServiceJob, SerializeParseRoundTripsCanonically)
{
    JobSpec job;
    job.name = "demo_run-1";
    job.batches = {1, 2, 4};
    job.schedules = {"FSMoE", "Tutel"};
    job.outPath = "/tmp/out.json";

    const std::string text = serializeJobSpec(job);
    JobSpec back;
    std::string error;
    ASSERT_TRUE(parseJobSpec(text, &back, &error)) << error;
    EXPECT_EQ(back.name, job.name);
    EXPECT_EQ(back.batches, job.batches);
    EXPECT_EQ(back.schedules, job.schedules);
    EXPECT_EQ(back.outPath, job.outPath);
    // Canonical: a second serialise emits identical bytes.
    EXPECT_EQ(serializeJobSpec(back), text);
}

TEST(ServiceJob, SchedulesLineIsOptional)
{
    JobSpec back;
    std::string error;
    ASSERT_TRUE(parseJobSpec("fsmoe-job v1\nname a\nbatches 1\nout o\n",
                             &back, &error))
        << error;
    EXPECT_TRUE(back.schedules.empty());
    // Empty schedules = full demo grid, same as runtime::demoGrid.
    EXPECT_EQ(buildJobGrid(back).size(),
              runtime::demoGrid({1}, {}).size());
}

TEST(ServiceJob, MalformedSpecsAreRejectedWithLineErrors)
{
    const char *bad[] = {
        "fsmoe-job v2\nname a\nbatches 1\nout o\n",  // wrong version
        "name a\nbatches 1\nout o\n",                // missing header
        "fsmoe-job v1\nname a\nbatches 1\nout o\nfrobnicate yes\n",
        "fsmoe-job v1\nname a\nbatches 0\nout o\n",  // bad batch
        "fsmoe-job v1\nname a\nbatches x\nout o\n",  // non-integer
        "fsmoe-job v1\nname a\nbatches 99999999999999999999\nout o\n",
        "fsmoe-job v1\nname a\nbatches +3\nout o\n", // signed
        "fsmoe-job v1\nbatches 1\nout o\n",          // missing name
        "fsmoe-job v1\nname a\nout o\n",             // missing batches
        "fsmoe-job v1\nname a\nbatches 1\n",         // missing out
        "fsmoe-job v1\nname bad/name\nbatches 1\nout o\n",
    };
    for (const char *text : bad) {
        SCOPED_TRACE(text);
        JobSpec out;
        std::string error;
        EXPECT_FALSE(parseJobSpec(text, &out, &error));
        EXPECT_FALSE(error.empty());
    }
}

TEST(ServiceJob, BatchListsParseStrictly)
{
    std::vector<int64_t> batches = {9};
    ASSERT_TRUE(parseBatchList("1,2,4", &batches));
    EXPECT_EQ(batches, (std::vector<int64_t>{1, 2, 4}));
    const char *bad[] = {"", "1,", ",1", "1,,2", "0", "-1", "+2", " 1",
                         "1 ", "2x", "99999999999999999999"};
    for (const char *text : bad) {
        SCOPED_TRACE(text);
        EXPECT_FALSE(parseBatchList(text, &batches));
        EXPECT_EQ(batches, (std::vector<int64_t>{1, 2, 4}));
    }
}

TEST(ServiceJob, GridMatchesDemoGridForTheSameAxes)
{
    JobSpec job;
    job.name = "g";
    job.batches = {1, 2};
    job.outPath = "o";
    const auto got = buildJobGrid(job);
    const auto want = runtime::demoGrid({1, 2}, {});
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].label(), want[i].label());
}

// ---- job queue -----------------------------------------------------

JobSpec
queueJob(const char *name)
{
    JobSpec job;
    job.name = name;
    job.batches = {1};
    job.outPath = (fs::path(testing::TempDir()) / "unused.json").string();
    return job;
}

TEST(ServiceJobQueue, SubmitScanAndStateTransitionsPersist)
{
    const std::string dir = scratchDir("svcq_basic");
    JobQueue queue;
    std::string error;
    ASSERT_TRUE(queue.open(dir, &error)) << error;

    std::string id1, id2;
    ASSERT_TRUE(queue.submit(queueJob("alpha"), &id1, &error)) << error;
    ASSERT_TRUE(queue.submit(queueJob("beta"), &id2, &error)) << error;
    EXPECT_EQ(id1, "0001-alpha");
    EXPECT_EQ(id2, "0002-beta");

    std::vector<JobEntry> jobs = queue.scan(&error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].id, id1); // sorted = submission order
    EXPECT_EQ(jobs[0].state, "queued");
    EXPECT_EQ(jobs[1].id, id2);

    ASSERT_TRUE(queue.setState(id1, "active", &error)) << error;
    ASSERT_TRUE(queue.setState(id2, "failed worker pool exhausted",
                               &error))
        << error;
    jobs = queue.scan(&error);
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].state, "active");
    EXPECT_EQ(jobs[1].state, "failed");
    EXPECT_EQ(jobs[1].error, "worker pool exhausted");

    // A fresh JobQueue over the same dir sees identical state: the
    // queue is the filesystem, not process memory.
    JobQueue other;
    ASSERT_TRUE(other.open(dir, &error)) << error;
    std::vector<JobEntry> again = other.scan(&error);
    ASSERT_EQ(again.size(), 2u);
    EXPECT_EQ(again[0].state, "active");
    fs::remove_all(dir);
}

TEST(ServiceJobQueue, SpecRoundTripsThroughTheQueue)
{
    const std::string dir = scratchDir("svcq_spec");
    JobQueue queue;
    std::string error;
    ASSERT_TRUE(queue.open(dir, &error)) << error;

    JobSpec job = queueJob("spec_rt");
    job.batches = {1, 2};
    job.schedules = {"FSMoE"};
    std::string id;
    ASSERT_TRUE(queue.submit(job, &id, &error)) << error;

    JobSpec back;
    ASSERT_TRUE(queue.loadSpec(id, &back, &error)) << error;
    EXPECT_EQ(serializeJobSpec(back), serializeJobSpec(job));
    fs::remove_all(dir);
}

TEST(ServiceJobQueue, ClaimWithoutStateIsInvisibleDebris)
{
    // A submitter killed between claiming an id and committing the
    // state file leaves a claim with no state — scan() must skip it
    // and the id must stay burned (the next submit picks a new one).
    const std::string dir = scratchDir("svcq_debris");
    JobQueue queue;
    std::string error;
    ASSERT_TRUE(queue.open(dir, &error)) << error;

    std::string id;
    ASSERT_TRUE(queue.submit(queueJob("real"), &id, &error)) << error;
    // Simulate the dead submitter's debris.
    ASSERT_TRUE(fileio::atomicWriteFile(
        dir + "/jobs/0002-ghost.claim", "", &error))
        << error;

    std::vector<JobEntry> jobs = queue.scan(&error);
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].id, id);

    std::string id3;
    ASSERT_TRUE(queue.submit(queueJob("next"), &id3, &error)) << error;
    EXPECT_EQ(id3, "0003-next");
    fs::remove_all(dir);
}

// ---- end-to-end runJob ---------------------------------------------

TEST(ServiceSweepServer, RunJobOutputIsByteIdenticalToInProcessSweep)
{
    // The determinism contract (docs/SERVICE.md): the service's
    // merged output for a grid must equal the plain engine's sweep of
    // the same grid, byte for byte.
    JobSpec job = queueJob("e2e");
    job.batches = {1};
    job.schedules = {"FSMoE", "Tutel"};
    job.outPath = scratchPath("svc_e2e_out.json");
    const std::string journal = scratchPath("svc_e2e_journal.txt");

    ServerOptions opts;
    opts.numWorkers = 2;
    SweepServer server(opts);
    JobOutcome outcome;
    ASSERT_TRUE(server.runJob(job, journal, /*resume=*/false, &outcome))
        << outcome.error;
    EXPECT_TRUE(outcome.ok);
    EXPECT_FALSE(outcome.interrupted);
    EXPECT_EQ(outcome.quarantined, 0u);

    const auto grid = buildJobGrid(job);
    ASSERT_EQ(outcome.scenarios, grid.size());
    EXPECT_EQ(outcome.okResults, grid.size());

    const std::string want = scratchPath("svc_e2e_want.json");
    ASSERT_TRUE(runtime::writeResultsJson(want, cleanRecords(grid)));

    EXPECT_EQ(readAll(job.outPath), readAll(want));
    std::remove(job.outPath.c_str());
    std::remove(journal.c_str());
    std::remove(want.c_str());
}

TEST(ServiceSweepServer, RunJobResumesFromAPartialJournal)
{
    // Pre-journal a prefix of the grid, then let runJob resume: the
    // resumed count must be visible in the outcome and the output
    // still byte-identical to the uninterrupted run.
    JobSpec job = queueJob("resume");
    job.batches = {1};
    job.schedules = {"FSMoE"};
    job.outPath = scratchPath("svc_resume_out.json");
    const std::string journal = scratchPath("svc_resume_journal.txt");

    const auto grid = buildJobGrid(job);
    ASSERT_GE(grid.size(), 2u);
    const auto expect = cleanRecords(grid);
    {
        runtime::Journal j;
        std::string error;
        ASSERT_TRUE(j.open(journal, grid, /*resume=*/false, &error))
            << error;
        ASSERT_TRUE(j.append(0, expect[0], &error)) << error;
    }

    ServerOptions opts;
    opts.numWorkers = 2;
    SweepServer server(opts);
    JobOutcome outcome;
    ASSERT_TRUE(server.runJob(job, journal, /*resume=*/true, &outcome))
        << outcome.error;
    EXPECT_EQ(outcome.resumed, 1u);
    EXPECT_EQ(outcome.okResults, grid.size());

    const std::string want = scratchPath("svc_resume_want.json");
    ASSERT_TRUE(runtime::writeResultsJson(want, expect));
    EXPECT_EQ(readAll(job.outPath), readAll(want));
    std::remove(job.outPath.c_str());
    std::remove(journal.c_str());
    std::remove(want.c_str());
}

TEST(ServiceSweepServer, ResultFramesMustNameTheirGridScenario)
{
    // A Result frame is trusted only when its index is a plain decimal
    // inside the grid and its record describes exactly that scenario;
    // anything else (a non-numeric index once parsed as 0) is corrupt.
    const auto grid = runtime::demoGrid({1}, {"FSMoE", "Tutel"});
    ASSERT_GE(grid.size(), 2u);
    runtime::SweepEngine engine;
    const std::string rec0 = runtime::toJsonRecord(
        runtime::SweepResult::fromScenarioResult(engine.evaluate(grid[0])));

    size_t idx = 99;
    runtime::SweepResult r;
    std::string error;
    ASSERT_TRUE(decodeResultFrame("0 " + rec0, grid, &idx, &r, &error))
        << error;
    EXPECT_EQ(idx, 0u);
    EXPECT_EQ(r.scenario.label(), grid[0].label());

    const std::string bad[] = {
        "abc " + rec0,                          // non-numeric index
        "1 " + rec0,                            // another scenario's record
        " 0 " + rec0,                           // empty index field
        "+0 " + rec0,                           // signed index
        "0x0 " + rec0,                          // trailing garbage
        "99999999999999999999999 " + rec0,      // overflows size_t
        std::to_string(grid.size()) + " " + rec0, // out of range
        "0 {\"model\":",                        // unparsable record
        "0",                                    // no record at all
    };
    for (const std::string &body : bad) {
        SCOPED_TRACE(body.substr(0, 40));
        error.clear();
        EXPECT_FALSE(decodeResultFrame(body, grid, &idx, &r, &error));
        EXPECT_FALSE(error.empty());
    }
}

// ---- runGrid: the fault-tolerant path of fsmoe_sweep ----------------

/** RAII: no injection before or after each test, whatever happens. */
struct FaultGuard
{
    FaultGuard() { runtime::fault::reset(); }
    ~FaultGuard() { runtime::fault::reset(); }
};

void
configureFaults(const std::string &spec)
{
    runtime::fault::FaultConfig cfg;
    std::string error;
    ASSERT_TRUE(runtime::fault::parseSpec(spec, &cfg, &error)) << error;
    runtime::fault::configure(cfg);
}

std::vector<runtime::Scenario>
smallGrid()
{
    return runtime::ScenarioGrid().numLayers({1}).build();
}

std::vector<std::string>
recordBytes(const std::vector<runtime::SweepResult> &results)
{
    std::vector<std::string> out;
    for (const runtime::SweepResult &r : results)
        out.push_back(runtime::toJsonRecord(r));
    return out;
}

std::vector<std::string>
cleanBytes(const std::vector<runtime::Scenario> &grid)
{
    return recordBytes(cleanRecords(grid));
}

/** Open a fresh journal at @p path over @p grid, or resume it. */
void
openJournal(runtime::Journal *j, const std::string &path,
            const std::vector<runtime::Scenario> &grid, bool resume)
{
    std::string error;
    ASSERT_TRUE(j->open(path, grid, resume, &error)) << error;
}

ServerOptions
fastServerOpts()
{
    ServerOptions opts;
    opts.numWorkers = 2;
    opts.retry.backoffBaseMs = 1;
    opts.retry.backoffMaxMs = 2;
    return opts;
}

constexpr const char *kWorkerLost = "worker lost before reporting a result";

TEST(ServiceRunGrid, CleanRunIsByteIdenticalToThePlainEngine)
{
    FaultGuard guard;
    const auto grid = smallGrid();
    JobOutcome outcome;
    const auto results =
        SweepServer(fastServerOpts()).runGrid(grid, nullptr, &outcome);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.okResults, grid.size());
    EXPECT_EQ(recordBytes(results), cleanBytes(grid));
}

TEST(ServiceRunGrid, JournaledCleanRunIsByteIdenticalToThePlainEngine)
{
    // Both what runGrid returns and what it journals carry the plain
    // engine's bytes, record for record.
    FaultGuard guard;
    const auto grid = smallGrid();
    const auto clean = cleanBytes(grid);
    const std::string path = scratchPath("svc_rungrid_clean_journal.txt");
    {
        runtime::Journal j;
        openJournal(&j, path, grid, /*resume=*/false);
        JobOutcome outcome;
        const auto results =
            SweepServer(fastServerOpts()).runGrid(grid, &j, &outcome);
        ASSERT_TRUE(outcome.ok) << outcome.error;
        EXPECT_EQ(outcome.okResults, grid.size());
        EXPECT_EQ(recordBytes(results), clean);
    }
    runtime::Journal back;
    openJournal(&back, path, grid, /*resume=*/true);
    ASSERT_EQ(back.recovered().size(), grid.size());
    for (const auto &[idx, r] : back.recovered())
        EXPECT_EQ(runtime::toJsonRecord(r), clean[idx]) << "index " << idx;
    std::remove(path.c_str());
}

TEST(ServiceRunGrid, JournalGroupCommitsEachPollRound)
{
    // At 3 workers the supervisor commits each poll round's records
    // with one fsync: never more syncs than records, and every record
    // is still durable and recovered.
    FaultGuard guard;
    const auto grid = smallGrid();
    const std::string path = scratchPath("svc_rungrid_group_commit.txt");
    ServerOptions opts = fastServerOpts();
    opts.numWorkers = 3;
    const uint64_t appends0 =
        stats::counter("robust.journal.appends").value();
    const uint64_t syncs0 = stats::counter("robust.journal.syncs").value();
    {
        runtime::Journal j;
        openJournal(&j, path, grid, /*resume=*/false);
        JobOutcome outcome;
        SweepServer(opts).runGrid(grid, &j, &outcome);
        ASSERT_TRUE(outcome.ok) << outcome.error;
    }
    const uint64_t appends =
        stats::counter("robust.journal.appends").value() - appends0;
    const uint64_t syncs =
        stats::counter("robust.journal.syncs").value() - syncs0;
    EXPECT_EQ(appends, grid.size());
    EXPECT_GE(syncs, 1u);
    EXPECT_LE(syncs, appends);

    runtime::Journal back;
    openJournal(&back, path, grid, /*resume=*/true);
    EXPECT_EQ(back.recovered().size(), grid.size());
    std::remove(path.c_str());
}

TEST(ServiceRunGrid, ShutdownDoesNotSleepOutAPollTimeout)
{
#if FSMOE_SANITIZERS_ENABLED
    GTEST_SKIP() << "a wall-clock bound; sanitizer builds fork and "
                    "evaluate too slowly to judge it";
#endif
    // A graceful shutdown whose reapWorkers() has reaped the last
    // worker must not then poll() an empty socket set, which sleeps
    // out its whole 20 ms timeout (in a third to nine tenths of the
    // jobs, by the host). A one-scenario grid at 3 workers otherwise
    // takes about 1.3 ms a job: a job past 15 ms is a stall or a
    // scheduling hiccup, and 3 such jobs in 20 fail the test.
    FaultGuard guard;
    const auto grid = runtime::ScenarioGrid()
                          .schedules({"FSMoE"})
                          .numLayers({1})
                          .build();
    ASSERT_EQ(grid.size(), 1u);
    ServerOptions opts = fastServerOpts();
    opts.numWorkers = 3;
    std::vector<double> ms;
    for (int i = 0; i < 20; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        JobOutcome outcome;
        SweepServer(opts).runGrid(grid, nullptr, &outcome);
        ASSERT_TRUE(outcome.ok) << outcome.error;
        ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }
    std::sort(ms.begin(), ms.end());
    const auto slow = std::count_if(ms.begin(), ms.end(),
                                    [](double v) { return v >= 15.0; });
    EXPECT_LE(slow, 2) << "median job " << ms[ms.size() / 2]
                       << " ms, slowest " << ms.back() << " ms";
}

TEST(ServiceRunGrid, EvalFaultsRetryDeterministicallyAndSpareSurvivors)
{
    // Eval faults alone: no worker dies, every failed scenario is
    // re-assigned until it succeeds or exhausts its own attempts, and
    // the outcome is a pure function of the seed.
    FaultGuard guard;
    const auto grid = smallGrid();
    const ServerOptions opts = fastServerOpts();
    configureFaults("seed=42,eval=0.6");
    JobOutcome outcome;
    const auto first = SweepServer(opts).runGrid(grid, nullptr, &outcome);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    const auto second = SweepServer(opts).runGrid(grid, nullptr, &outcome);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(recordBytes(first), recordBytes(second));
    ASSERT_GT(outcome.quarantined, 0u)
        << "pick a seed that quarantines something";
    ASSERT_GT(outcome.okResults, 0u) << "pick a seed that leaves survivors";

    runtime::fault::reset();
    const auto clean = cleanBytes(grid);
    ASSERT_EQ(first.size(), grid.size());
    for (size_t i = 0; i < first.size(); ++i) {
        const runtime::SweepResult &r = first[i];
        if (r.status == runtime::ResultStatus::Ok) {
            EXPECT_EQ(runtime::toJsonRecord(r), clean[i]);
        } else {
            EXPECT_EQ(r.status, runtime::ResultStatus::Quarantined);
            EXPECT_EQ(r.attempts, opts.retry.maxAttempts);
            EXPECT_NE(r.error.find("injected eval fault"), std::string::npos)
                << r.error;
            EXPECT_EQ(r.makespanMs, 0.0);
        }
    }
}

TEST(ServiceRunGrid, QuarantinedSweepResumedCleanConvergesToCleanBytes)
{
    // A journal holding both Ok and quarantined records: the resume
    // keeps the Ok ones, re-attempts the rest, and heals to the clean
    // bytes.
    FaultGuard guard;
    const auto grid = smallGrid();
    const std::string path = scratchPath("svc_rungrid_mixed_journal.txt");
    size_t survivors = 0;
    {
        configureFaults("seed=42,eval=0.9");
        runtime::Journal j;
        openJournal(&j, path, grid, /*resume=*/false);
        JobOutcome outcome;
        SweepServer(fastServerOpts()).runGrid(grid, &j, &outcome);
        ASSERT_TRUE(outcome.ok) << outcome.error;
        ASSERT_GT(outcome.quarantined, 0u)
            << "pick a seed that quarantines something";
        ASSERT_GT(outcome.okResults, 0u)
            << "pick a seed that leaves survivors";
        survivors = outcome.okResults;
    }

    runtime::fault::reset();
    runtime::Journal back;
    openJournal(&back, path, grid, /*resume=*/true);
    EXPECT_EQ(back.recovered().size(), grid.size());
    JobOutcome outcome;
    const auto healed =
        SweepServer(fastServerOpts()).runGrid(grid, &back, &outcome);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.resumed, survivors);
    EXPECT_EQ(outcome.quarantined, 0u);
    EXPECT_EQ(recordBytes(healed), cleanBytes(grid));
    std::remove(path.c_str());
}

TEST(ServiceRunGrid, RetryBackoffDoublesAndSaturates)
{
    RetryPolicy retry;
    retry.backoffBaseMs = 10;
    retry.backoffMaxMs = 1000;
    EXPECT_EQ(retry.backoffMs(1), 10);
    EXPECT_EQ(retry.backoffMs(2), 20);
    EXPECT_EQ(retry.backoffMs(5), 160);
    EXPECT_EQ(retry.backoffMs(8), 1000);  // capped
    EXPECT_EQ(retry.backoffMs(30), 1000); // no overflow blow-up
}

TEST(ServiceRunGrid, CertainEvalFailureQuarantinesAfterMaxAttempts)
{
    FaultGuard guard;
    const auto grid = runtime::ScenarioGrid()
                          .schedules({"FSMoE"})
                          .numLayers({1})
                          .build();
    ASSERT_EQ(grid.size(), 1u);
    configureFaults("seed=1,eval=1");
    ServerOptions opts = fastServerOpts();
    opts.retry.maxAttempts = 2;
    JobOutcome outcome;
    const auto results = SweepServer(opts).runGrid(grid, nullptr, &outcome);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, runtime::ResultStatus::Quarantined);
    EXPECT_EQ(results[0].attempts, 2);
    EXPECT_EQ(results[0].error, "injected eval fault (attempt 2)");
    EXPECT_EQ(results[0].scenario.label(), grid[0].label());
}

TEST(ServiceRunGrid, ResumeOverACompleteJournalSpawnsNoWorker)
{
    FaultGuard guard;
    const auto grid = smallGrid();
    const std::string path = scratchPath("svc_rungrid_complete.txt");
    {
        runtime::Journal j;
        openJournal(&j, path, grid, /*resume=*/false);
        JobOutcome outcome;
        SweepServer(fastServerOpts()).runGrid(grid, &j, &outcome);
        ASSERT_TRUE(outcome.ok) << outcome.error;
    }

    // The recovered entries alone must reproduce the full result set.
    runtime::Journal back;
    openJournal(&back, path, grid, /*resume=*/true);
    EXPECT_EQ(back.recovered().size(), grid.size());
    const uint64_t spawned = stats::counter("service.workers.spawned").value();
    JobOutcome outcome;
    const auto resumed =
        SweepServer(fastServerOpts()).runGrid(grid, &back, &outcome);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(stats::counter("service.workers.spawned").value(), spawned)
        << "resume over a complete journal forked workers";
    EXPECT_EQ(outcome.resumed, grid.size());
    EXPECT_EQ(recordBytes(resumed), cleanBytes(grid));
    std::remove(path.c_str());
}

TEST(ServiceRunGrid, KilledMidSweepResumesToByteIdenticalResults)
{
    const auto grid = smallGrid();
    const std::string path = scratchPath("svc_rungrid_kill.txt");

    // Child: a journaled runGrid whose supervisor exits (137) after the
    // 2nd append — the SIGKILL-mid-sweep case with a deterministic kill
    // point. Its workers die with it (PR_SET_PDEATHSIG).
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        runtime::fault::FaultConfig cfg;
        std::string error;
        if (!runtime::fault::parseSpec("kill-after=2", &cfg, &error))
            ::_exit(3);
        runtime::fault::configure(cfg);
        runtime::Journal j;
        if (!j.open(path, grid, /*resume=*/false, &error))
            ::_exit(4);
        JobOutcome outcome;
        SweepServer(fastServerOpts()).runGrid(grid, &j, &outcome);
        ::_exit(5); // must have died on the 2nd append
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 137)
        << "child completed the sweep it was told to die in";

    // Parent: resume the interrupted journal with injection off.
    FaultGuard guard;
    runtime::Journal back;
    openJournal(&back, path, grid, /*resume=*/true);
    EXPECT_EQ(back.recovered().size(), 2u);
    JobOutcome outcome;
    const auto resumed =
        SweepServer(fastServerOpts()).runGrid(grid, &back, &outcome);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.resumed, 2u);
    EXPECT_EQ(recordBytes(resumed), cleanBytes(grid));
    std::remove(path.c_str());
}

TEST(ServiceRunGrid, StopAfterDrainsGracefullyAndResumeConverges)
{
    // stop-after=K is the deterministic stand-in for SIGTERM: once K
    // results finish the grid drains, journalled work survives,
    // unstarted scenarios are not counted as finished, and a resume
    // converges to the clean bytes.
    FaultGuard guard;
    interrupt::clearStop();
    const auto grid = smallGrid();
    ASSERT_GT(grid.size(), 2u);
    const std::string path = scratchPath("svc_rungrid_stop.txt");

    configureFaults("stop-after=2");
    size_t finished = 0;
    {
        runtime::Journal j;
        openJournal(&j, path, grid, /*resume=*/false);
        JobOutcome outcome;
        const auto partial =
            SweepServer(fastServerOpts()).runGrid(grid, &j, &outcome);
        EXPECT_TRUE(interrupt::stopRequested());
        EXPECT_TRUE(outcome.interrupted);
        ASSERT_EQ(partial.size(), grid.size());
        finished = outcome.okResults + outcome.quarantined;
    }
    // Workers finish the scenario in hand while draining, so at least
    // (not exactly) K results land.
    EXPECT_GE(finished, 2u);
    EXPECT_LT(finished, grid.size());
    interrupt::clearStop();
    runtime::fault::reset();

    runtime::Journal back;
    openJournal(&back, path, grid, /*resume=*/true);
    EXPECT_EQ(back.recovered().size(), finished);
    JobOutcome outcome;
    const auto resumed =
        SweepServer(fastServerOpts()).runGrid(grid, &back, &outcome);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_FALSE(interrupt::stopRequested());
    EXPECT_EQ(recordBytes(resumed), cleanBytes(grid));
    std::remove(path.c_str());
}

TEST(ServiceRunGrid, GracefulStopChargesNoAttempt)
{
    // A drain only interrupts the scenarios in flight: it must not
    // charge them an attempt, so even at maxAttempts 1 nothing is
    // quarantined and every journalled record is a real result.
    FaultGuard guard;
    interrupt::clearStop();
    const auto grid = runtime::demoGrid();
    const std::string path = scratchPath("svc_rungrid_stop_charge.txt");
    ServerOptions opts = fastServerOpts();
    opts.numWorkers = 3;
    opts.retry.maxAttempts = 1;
    configureFaults("stop-after=10");
    {
        runtime::Journal j;
        openJournal(&j, path, grid, /*resume=*/false);
        JobOutcome outcome;
        SweepServer(opts).runGrid(grid, &j, &outcome);
        EXPECT_TRUE(outcome.interrupted);
    }
    interrupt::clearStop();
    runtime::fault::reset();

    runtime::Journal back;
    openJournal(&back, path, grid, /*resume=*/true);
    EXPECT_GE(back.recovered().size(), 10u);
    EXPECT_LT(back.recovered().size(), grid.size());
    for (const auto &[idx, r] : back.recovered())
        EXPECT_EQ(r.status, runtime::ResultStatus::Ok)
            << "index " << idx << ": " << r.error;
    std::remove(path.c_str());
}

TEST(ServiceRunGrid, StopAfterDrainFinishesAtMostTwoPerWorker)
{
    // The stop fires as the K-th result is queued, before its worker is
    // topped up: K - 1 results came before it, and each worker holds at
    // most two scenarios, all of which the drain finishes. A resume
    // converges to the blessed bytes.
    FaultGuard guard;
    interrupt::clearStop();
    const auto grid = runtime::demoGrid();
    const std::string path = scratchPath("svc_rungrid_stop_bound.txt");
    ServerOptions opts = fastServerOpts();
    opts.numWorkers = 3;
    const size_t k = 10;
    configureFaults("stop-after=" + std::to_string(k));
    size_t finished = 0;
    {
        runtime::Journal j;
        openJournal(&j, path, grid, /*resume=*/false);
        JobOutcome outcome;
        SweepServer(opts).runGrid(grid, &j, &outcome);
        EXPECT_TRUE(outcome.interrupted);
        finished = outcome.okResults + outcome.quarantined;
    }
    EXPECT_GE(finished, k);
    EXPECT_LE(finished, k - 1 + 2 * static_cast<size_t>(opts.numWorkers));
    interrupt::clearStop();
    runtime::fault::reset();

    runtime::Journal back;
    openJournal(&back, path, grid, /*resume=*/true);
    EXPECT_EQ(back.recovered().size(), finished);
    JobOutcome outcome;
    const auto resumed = SweepServer(opts).runGrid(grid, &back, &outcome);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.resumed, finished);
    EXPECT_TRUE(runtime::toJson(resumed) == readAll(FSMOE_DEMO_BASELINE))
        << "resumed sweep differs from " FSMOE_DEMO_BASELINE;
    std::remove(path.c_str());
}

TEST(ServiceRunGrid, WorkerCrashesQuarantineAfterMaxAttempts)
{
    FaultGuard guard;
    const auto grid = runtime::ScenarioGrid()
                          .schedules({"FSMoE"})
                          .numLayers({1})
                          .build();
    ASSERT_EQ(grid.size(), 1u);
    configureFaults("seed=1,crash=1");
    ServerOptions opts = fastServerOpts();
    opts.retry.maxAttempts = 2;
    JobOutcome outcome;
    const auto results = SweepServer(opts).runGrid(grid, nullptr, &outcome);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, runtime::ResultStatus::Quarantined);
    EXPECT_EQ(results[0].attempts, opts.retry.maxAttempts);
    EXPECT_EQ(results[0].error, kWorkerLost);
    EXPECT_EQ(results[0].scenario.label(), grid[0].label());
    EXPECT_GE(stats::counter("service.workers.restarted").value(), 1u);
}

TEST(ServiceRunGrid, WorkerDeathHoldingTwoScenariosCostsOneAttempt)
{
    // A worker holds the scenario it runs and the next one. When it
    // dies, only the one it was running is charged: the queued one is
    // handed back with its attempt refunded. At maxAttempts 1 a second
    // charge would quarantine it. The crash hits grid index 0 alone,
    // the first scenario assigned, so its worker has index 1 queued
    // behind it (or its send fails on the dead worker).
    FaultGuard guard;
    const auto grid = runtime::demoGrid();
    runtime::fault::FaultConfig cfg;
    cfg.rate[static_cast<int>(runtime::fault::Site::WorkerCrash)] = 0.05;
    const auto crashes = [&] {
        std::vector<size_t> out;
        for (size_t i = 0; i < grid.size(); ++i)
            if (runtime::fault::shouldInject(
                    runtime::fault::Site::WorkerCrash, grid[i].label(),
                    /*attempt=*/1))
                out.push_back(i);
        return out;
    };
    for (cfg.seed = 1; cfg.seed < 10000; ++cfg.seed) {
        runtime::fault::configure(cfg);
        if (crashes() == std::vector<size_t>{0})
            break;
    }
    ASSERT_EQ(crashes(), std::vector<size_t>{0})
        << "no seed below 10000 crashes index 0 alone";

    ServerOptions opts = fastServerOpts();
    opts.numWorkers = 3;
    opts.retry.maxAttempts = 1;
    const uint64_t requeued0 =
        stats::counter("service.scenarios.requeued").value();
    JobOutcome outcome;
    const auto results = SweepServer(opts).runGrid(grid, nullptr, &outcome);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.quarantined, 1u);
    EXPECT_GE(stats::counter("service.scenarios.requeued").value() - requeued0,
              1u);

    runtime::fault::reset();
    const auto clean = cleanBytes(grid);
    ASSERT_EQ(results.size(), grid.size());
    EXPECT_EQ(results[0].status, runtime::ResultStatus::Quarantined);
    EXPECT_EQ(results[0].attempts, 1);
    EXPECT_EQ(results[0].error, kWorkerLost);
    for (size_t i = 1; i < results.size(); ++i)
        EXPECT_EQ(runtime::toJsonRecord(results[i]), clean[i]) << i;
}

TEST(ServiceRunGrid, WatchdogKillsHungWorkers)
{
    FaultGuard guard;
    const auto grid = runtime::ScenarioGrid()
                          .schedules({"FSMoE"})
                          .numLayers({1})
                          .build();
    configureFaults("seed=1,timeout=1");
    ServerOptions opts = fastServerOpts();
    opts.numWorkers = 1;
    opts.heartbeatTimeoutMs = 300;
    opts.retry.maxAttempts = 1;
    JobOutcome outcome;
    const auto results = SweepServer(opts).runGrid(grid, nullptr, &outcome);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, runtime::ResultStatus::Quarantined);
    EXPECT_EQ(results[0].attempts, 1);
    EXPECT_EQ(results[0].error, "worker missed its heartbeat deadline");
    EXPECT_GE(stats::counter("service.heartbeats.missed").value(), 1u);
}

TEST(ServiceRunGrid, DisconnectsQuarantineThenACleanResumeHeals)
{
    // Every attempt loses its worker to a closed socket: EOF
    // detection, respawn, backoff-gated reassignment and quarantine all
    // run, and the journal keeps the quarantine records. A clean resume
    // re-attempts them and converges to the clean bytes.
    FaultGuard guard;
    const auto grid = smallGrid();
    const std::string path = scratchPath("svc_rungrid_heal_journal.txt");
    ServerOptions opts = fastServerOpts();
    opts.retry.maxAttempts = 2;
    std::string error;
    {
        configureFaults("seed=1,disconnect=1");
        runtime::Journal j;
        ASSERT_TRUE(j.open(path, grid, /*resume=*/false, &error)) << error;
        JobOutcome outcome;
        const auto results = SweepServer(opts).runGrid(grid, &j, &outcome);
        ASSERT_TRUE(outcome.ok) << outcome.error;
        EXPECT_EQ(outcome.quarantined, grid.size());
        for (const runtime::SweepResult &r : results) {
            EXPECT_EQ(r.status, runtime::ResultStatus::Quarantined);
            EXPECT_EQ(r.attempts, opts.retry.maxAttempts);
            EXPECT_EQ(r.error, kWorkerLost);
        }
    }
    EXPECT_GE(stats::counter("service.scenarios.retried").value(), 1u);

    runtime::fault::reset();
    runtime::Journal back;
    ASSERT_TRUE(back.open(path, grid, /*resume=*/true, &error)) << error;
    EXPECT_EQ(back.recovered().size(), grid.size());
    JobOutcome outcome;
    const auto healed = SweepServer(opts).runGrid(grid, &back, &outcome);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.resumed, 0u); // quarantined records are not done
    EXPECT_EQ(outcome.quarantined, 0u);
    EXPECT_EQ(recordBytes(healed), cleanBytes(grid));
    std::remove(path.c_str());
}

TEST(ServiceRunGrid, InjectedRunsAreByteIdenticalAndSpareSurvivors)
{
    // Which scenarios a fault spec quarantines is a pure function of the
    // spec — including results a crashed worker streamed just before
    // dying, which must be salvaged rather than charged and re-run at
    // the scenario's next attempt. Four workers and fsync'd
    // journal appends keep the supervisor busy while other workers
    // stream and die: the window in which waitpid can notice a death
    // before the dead worker's last frames are read.
    FaultGuard guard;
    const auto grid = runtime::demoGrid();
    ServerOptions opts;
    opts.numWorkers = 4;
    opts.retry.maxAttempts = 2;
    configureFaults("seed=42,eval=0.4,crash=0.1");
    const std::string path = scratchPath("svc_rungrid_inject.txt");
    const auto injectedRun = [&](JobOutcome *outcome) {
        std::remove(path.c_str());
        runtime::Journal j;
        std::string error;
        EXPECT_TRUE(j.open(path, grid, /*resume=*/false, &error)) << error;
        return SweepServer(opts).runGrid(grid, &j, outcome);
    };
    JobOutcome outcome;
    const auto first = injectedRun(&outcome);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    for (int run = 2; run <= 3; ++run) {
        const auto again = injectedRun(&outcome);
        ASSERT_TRUE(outcome.ok) << outcome.error;
        EXPECT_EQ(recordBytes(again), recordBytes(first)) << "run " << run;
    }
    std::remove(path.c_str());
    EXPECT_GT(outcome.quarantined, 0u)
        << "pick a seed that quarantines something";
    EXPECT_GT(outcome.okResults, 0u) << "pick a seed that leaves survivors";

    runtime::fault::reset();
    const auto clean = cleanBytes(grid);
    ASSERT_EQ(first.size(), grid.size());
    for (size_t i = 0; i < first.size(); ++i) {
        if (first[i].status == runtime::ResultStatus::Ok) {
            EXPECT_EQ(runtime::toJsonRecord(first[i]), clean[i]);
        } else {
            EXPECT_EQ(first[i].attempts, opts.retry.maxAttempts);
            EXPECT_FALSE(first[i].error.empty());
        }
    }
}

TEST(ServiceRunGrid, InjectedOutcomeIsIndependentOfWorkerCount)
{
    // Each scenario is assigned and retried on its own, so every fault
    // decision keys on that scenario's attempt alone: the output is the
    // same at any worker count.
    FaultGuard guard;
    const auto grid = runtime::demoGrid();
    configureFaults("seed=7,eval=0.3,crash=0.2,timeout=0.1");
    ServerOptions opts = fastServerOpts();
    opts.retry.maxAttempts = 2;
    opts.heartbeatTimeoutMs = 300;
    std::vector<runtime::SweepResult> first;
    for (int workers : {1, 3, 8}) {
        SCOPED_TRACE(workers);
        opts.numWorkers = workers;
        JobOutcome outcome;
        const auto results = SweepServer(opts).runGrid(grid, nullptr, &outcome);
        ASSERT_TRUE(outcome.ok) << outcome.error;
        EXPECT_GT(outcome.quarantined, 0u)
            << "pick a seed that quarantines something";
        EXPECT_GT(outcome.okResults, 0u) << "pick a seed that leaves survivors";
        if (first.empty()) {
            first = results;
        } else {
            EXPECT_EQ(recordBytes(results), recordBytes(first));
        }
    }

    runtime::fault::reset();
    const auto clean = cleanBytes(grid);
    ASSERT_EQ(first.size(), grid.size());
    for (size_t i = 0; i < first.size(); ++i) {
        if (first[i].status == runtime::ResultStatus::Ok) {
            EXPECT_EQ(runtime::toJsonRecord(first[i]), clean[i]) << i;
        }
    }
}

} // namespace
} // namespace fsmoe::service
