/**
 * @file
 * Tests for the persistent result store: bit-exact JSON/CSV
 * round-trips, regression-diff gating, shard partitioning, and shard
 * merging back into the unsharded sweep.
 */
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/result_store.h"
#include "runtime/scenario.h"
#include "runtime/sweep_engine.h"

namespace fsmoe::runtime {
namespace {

/** A small real sweep (2 configurations x 6 schedules, 2 layers). */
std::vector<SweepResult>
sweptResults()
{
    const auto grid = ScenarioGrid()
                          .models({"gpt2xl-moe"})
                          .clusters({"testbedA", "testbedB"})
                          .numLayers({2})
                          .build();
    SweepEngine engine({/*numThreads=*/2});
    return toSweepResults(engine.run(grid));
}

void
expectBitEqual(const std::vector<SweepResult> &a,
               const std::vector<SweepResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].scenario.model, b[i].scenario.model);
        EXPECT_EQ(a[i].scenario.cluster, b[i].scenario.cluster);
        EXPECT_EQ(a[i].scenario.schedule, b[i].scenario.schedule);
        EXPECT_EQ(a[i].scenario.batch, b[i].scenario.batch);
        EXPECT_EQ(a[i].scenario.seqLen, b[i].scenario.seqLen);
        EXPECT_EQ(a[i].scenario.numLayers, b[i].scenario.numLayers);
        EXPECT_EQ(a[i].scenario.numExperts, b[i].scenario.numExperts);
        EXPECT_EQ(a[i].scenario.rMax, b[i].scenario.rMax);
        // memcmp: bit-identical doubles, not approximately equal.
        EXPECT_EQ(std::memcmp(&a[i].makespanMs, &b[i].makespanMs,
                              sizeof(double)),
                  0)
            << a[i].scenario.label();
        EXPECT_EQ(std::memcmp(a[i].opTimeMs.data(), b[i].opTimeMs.data(),
                              sizeof(double) * a[i].opTimeMs.size()),
                  0)
            << a[i].scenario.label();
    }
}

// --------------------------------------------------------- round-trip

TEST(ResultStore, JsonRoundTripIsBitExact)
{
    const auto records = sweptResults();
    std::vector<SweepResult> reread;
    std::string error;
    ASSERT_TRUE(parseJson(toJson(records), &reread, &error)) << error;
    expectBitEqual(records, reread);
    // Writer determinism: serialising twice yields the same bytes.
    EXPECT_EQ(toJson(records), toJson(reread));
}

TEST(ResultStore, CsvRoundTripIsBitExact)
{
    const auto records = sweptResults();
    std::vector<SweepResult> reread;
    std::string error;
    ASSERT_TRUE(parseCsv(toCsv(records), &reread, &error)) << error;
    expectBitEqual(records, reread);
    EXPECT_EQ(toCsv(records), toCsv(reread));
}

TEST(ResultStore, LinkStatsRoundTripThroughBothFormats)
{
    const auto records = sweptResults();
    // The engine populates the per-link breakdown on every record.
    for (const SweepResult &r : records) {
        ASSERT_TRUE(r.hasLinkStats);
        double total = 0.0;
        for (double v : r.linkBusyMs)
            total += v;
        EXPECT_GT(total, 0.0) << r.scenario.label();
    }

    std::vector<SweepResult> reread;
    std::string error;
    ASSERT_TRUE(parseJson(toJson(records, /*include_link_stats=*/true),
                          &reread, &error))
        << error;
    expectBitEqual(records, reread);
    for (size_t i = 0; i < records.size(); ++i) {
        ASSERT_TRUE(reread[i].hasLinkStats);
        EXPECT_EQ(std::memcmp(records[i].linkBusyMs.data(),
                              reread[i].linkBusyMs.data(),
                              sizeof(double) * records[i].linkBusyMs.size()),
                  0)
            << records[i].scenario.label();
    }

    ASSERT_TRUE(parseCsv(toCsv(records, /*include_link_stats=*/true),
                         &reread, &error))
        << error;
    expectBitEqual(records, reread);
    for (size_t i = 0; i < records.size(); ++i) {
        ASSERT_TRUE(reread[i].hasLinkStats);
        EXPECT_EQ(std::memcmp(records[i].linkBusyMs.data(),
                              reread[i].linkBusyMs.data(),
                              sizeof(double) * records[i].linkBusyMs.size()),
                  0)
            << records[i].scenario.label();
    }
}

TEST(ResultStore, DefaultWritersOmitLinkStats)
{
    const auto records = sweptResults();
    // Opt-out writers emit the pre-link-stat shape: no link columns in
    // the bytes, and readers leave hasLinkStats false.
    EXPECT_EQ(toJson(records).find("link_busy_ms"), std::string::npos);
    EXPECT_EQ(toCsv(records).find("link_"), std::string::npos);
    std::vector<SweepResult> reread;
    std::string error;
    ASSERT_TRUE(parseJson(toJson(records), &reread, &error)) << error;
    for (const SweepResult &r : reread)
        EXPECT_FALSE(r.hasLinkStats);
    ASSERT_TRUE(parseCsv(toCsv(records), &reread, &error)) << error;
    for (const SweepResult &r : reread)
        EXPECT_FALSE(r.hasLinkStats);
}

TEST(ResultStore, StatusFieldsRoundTripThroughAllFourHeaderShapes)
{
    auto records = sweptResults();
    ASSERT_GE(records.size(), 3u);
    records[1].status = ResultStatus::Quarantined;
    records[1].attempts = 3;
    records[1].error = "injected eval fault, \"quoted\" and, commas";
    records[1].makespanMs = 0.0;
    records[1].opTimeMs.fill(0.0);
    records[2].status = ResultStatus::Failed;
    records[2].attempts = 1;
    records[2].error = "transient";
    records[2].makespanMs = 0.0;
    records[2].opTimeMs.fill(0.0);

    for (bool links : {false, true}) {
        SCOPED_TRACE(links ? "with links" : "without links");
        std::vector<SweepResult> reread;
        std::string error;
        ASSERT_TRUE(parseJson(toJson(records, links), &reread, &error))
            << error;
        expectBitEqual(records, reread);
        ASSERT_TRUE(parseCsv(toCsv(records, links), &reread, &error))
            << error;
        expectBitEqual(records, reread);
        EXPECT_EQ(reread[0].status, ResultStatus::Ok);
        EXPECT_EQ(reread[1].status, ResultStatus::Quarantined);
        EXPECT_EQ(reread[1].attempts, 3);
        EXPECT_EQ(reread[1].error, records[1].error);
        EXPECT_EQ(reread[2].status, ResultStatus::Failed);
        EXPECT_EQ(reread[2].attempts, 1);
    }
}

TEST(ResultStore, AllOkOutputIsByteIdenticalToPreStatusWriters)
{
    // The status columns are strictly opt-in-by-necessity: a result
    // set without failures serialises to the exact bytes the writers
    // emitted before status existed, keeping blessed baselines valid.
    const auto records = sweptResults();
    EXPECT_EQ(toJson(records).find("status"), std::string::npos);
    EXPECT_EQ(toCsv(records).find("status"), std::string::npos);
    for (const SweepResult &r : records)
        EXPECT_EQ(toJsonRecord(r).find("status"), std::string::npos);
}

TEST(ResultStore, JournalRecordRoundTripsStatusAndLinkStats)
{
    auto records = sweptResults();
    SweepResult ok = records[0];
    SweepResult bad = records[1];
    bad.status = ResultStatus::Quarantined;
    bad.attempts = 2;
    bad.error = "worker killed by signal 9";
    bad.makespanMs = 0.0;
    bad.opTimeMs.fill(0.0);

    for (const SweepResult &r : {ok, bad}) {
        const std::string line = toJsonRecord(r);
        EXPECT_EQ(line.find('\n'), std::string::npos);
        SweepResult reread;
        std::string error;
        ASSERT_TRUE(parseJsonRecord(line, &reread, &error)) << error;
        EXPECT_EQ(toJsonRecord(reread), line);
        EXPECT_EQ(reread.status, r.status);
        EXPECT_EQ(reread.attempts, r.attempts);
        EXPECT_EQ(reread.hasLinkStats, r.hasLinkStats);
    }
    SweepResult out;
    std::string error;
    EXPECT_FALSE(parseJsonRecord("not json", &out, &error));
    EXPECT_FALSE(parseJsonRecord("{\"model\":\"m\"}", &out, &error));
}

TEST(ResultStore, ParseResultStatusAcceptsOnlyWireNames)
{
    ResultStatus s;
    EXPECT_TRUE(parseResultStatus("ok", &s));
    EXPECT_EQ(s, ResultStatus::Ok);
    EXPECT_TRUE(parseResultStatus("failed", &s));
    EXPECT_EQ(s, ResultStatus::Failed);
    EXPECT_TRUE(parseResultStatus("quarantined", &s));
    EXPECT_EQ(s, ResultStatus::Quarantined);
    EXPECT_FALSE(parseResultStatus("OK", &s));
    EXPECT_FALSE(parseResultStatus("", &s));
    EXPECT_STREQ(resultStatusName(ResultStatus::Quarantined),
                 "quarantined");
}

TEST(ResultStore, AwkwardValuesAndNamesSurviveBothFormats)
{
    SweepResult r;
    r.scenario.model = "model,with \"quotes\"\nand newline";
    r.scenario.cluster = "back\\slash";
    r.scenario.schedule = "FSMoE";
    r.scenario.batch = 7;
    r.scenario.seqLen = 4096;
    r.scenario.numLayers = 3;
    r.scenario.numExperts = 9;
    r.scenario.rMax = 8;
    r.makespanMs = 1.0 / 3.0;
    r.opTimeMs[0] = 1e-300;         // subnormal-adjacent tiny value
    r.opTimeMs[1] = 12345.678901234567;
    r.opTimeMs[2] = -0.0;
    const std::vector<SweepResult> records = {r};

    std::vector<SweepResult> reread;
    std::string error;
    ASSERT_TRUE(parseJson(toJson(records), &reread, &error)) << error;
    expectBitEqual(records, reread);
    ASSERT_TRUE(parseCsv(toCsv(records), &reread, &error)) << error;
    expectBitEqual(records, reread);
}

TEST(ResultStore, FileRoundTripThroughBothExtensions)
{
    const auto records = sweptResults();
    const std::string json_path =
        testing::TempDir() + "/fsmoe_results.json";
    const std::string csv_path = testing::TempDir() + "/fsmoe_results.csv";
    ASSERT_TRUE(writeResultsJson(json_path, records));
    ASSERT_TRUE(writeResultsCsv(csv_path, records));

    std::vector<SweepResult> from_json, from_csv;
    std::string error;
    ASSERT_TRUE(readResults(json_path, &from_json, &error)) << error;
    ASSERT_TRUE(readResults(csv_path, &from_csv, &error)) << error;
    expectBitEqual(records, from_json);
    expectBitEqual(records, from_csv);

    std::remove(json_path.c_str());
    std::remove(csv_path.c_str());
}

TEST(ResultStore, ReadersRejectMalformedInput)
{
    std::vector<SweepResult> out;
    std::string error;
    EXPECT_FALSE(parseJson("", &out, &error));
    EXPECT_FALSE(parseJson("[1,2,3]", &out, &error));
    EXPECT_FALSE(parseJson("{\"schema\":\"other\",\"results\":[]}", &out,
                           &error));
    EXPECT_FALSE(
        parseJson("{\"schema\":\"fsmoe-sweep-results\",\"version\":1,"
                  "\"results\":[{\"model\":\"m\"}]}",
                  &out, &error));
    EXPECT_FALSE(parseCsv("", &out, &error));
    EXPECT_FALSE(parseCsv("not,the,header\n", &out, &error));
    EXPECT_FALSE(readResults("/no/such/file.json", &out, &error));

    // Pathological nesting must fail the parse, not overflow the stack.
    EXPECT_FALSE(parseJson(std::string(200000, '['), &out, &error));

    // Integer fields are read exactly or not at all, so a corrupt
    // record cannot alias a real scenario key: no truncated fractions,
    // no wrap when narrowing to int, no lenient CSV numbers.
    SweepResult r;
    r.scenario.model = "m";
    r.scenario.cluster = "c";
    r.scenario.schedule = "s";
    r.scenario.batch = 1;
    r.scenario.seqLen = 1024;
    r.scenario.numLayers = 2;
    r.scenario.numExperts = 8;
    r.scenario.rMax = 16;
    r.status = ResultStatus::Quarantined;
    r.attempts = 2;
    r.error = "e";
    const std::string record = toJsonRecord(r);
    const std::string csv = toCsv({r});
    SweepResult one;
    ASSERT_TRUE(parseJsonRecord(record, &one, &error)) << error;
    ASSERT_TRUE(parseCsv(csv, &out, &error)) << error;
    const auto replaced = [](std::string text, const std::string &from,
                             const std::string &to) {
        const size_t at = text.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return text.replace(at, from.size(), to);
    };
    for (const auto &[from, to] :
         std::vector<std::pair<std::string, std::string>>{
             {"\"batch\":1,", "\"batch\":1.5,"},
             {"\"batch\":1,", "\"batch\":1e300,"},
             {"\"seq_len\":1024,", "\"seq_len\":9.3e18,"},
             {"\"r_max\":16,", "\"r_max\":4294967312,"},
             {"\"num_layers\":2,", "\"num_layers\":-2147483649,"},
             {"\"num_experts\":8,", "\"num_experts\":8.25,"},
             {"\"attempts\":2,", "\"attempts\":2147483648,"},
             // JSON numbers follow the one number grammar
             // (base/number.h): no '+', nothing beyond binary64.
             {"\"batch\":1,", "\"batch\":+1,"},
             {"\"makespan_ms\":0,", "\"makespan_ms\":1e999,"},
             {"\"makespan_ms\":0,", "\"makespan_ms\":-1e999,"},
             {"\"makespan_ms\":0,", "\"makespan_ms\":1e-400,"}}) {
        EXPECT_FALSE(parseJsonRecord(replaced(record, from, to), &one,
                                     &error))
            << to;
    }
    for (const auto &[from, to] :
         std::vector<std::pair<std::string, std::string>>{
             {",1,1024,", ",+1,1024,"},
             {",1,1024,", ", 1,1024,"},
             {",1,1024,", ",1 ,1024,"},
             {",1,1024,", ",0x1,1024,"},
             {",1,1024,", ",1,99999999999999999999,"},
             {",1024,2,8,16,", ",1024,2,8,4294967312,"},
             {",16,0,", ",16, 0,"},
             {",16,0,", ",16,1e999,"},
             {",quarantined,2,", ",quarantined,+2,"}}) {
        EXPECT_FALSE(parseCsv(replaced(csv, from, to), &out, &error)) << to;
    }

    // Version 1 is the only schema; another version, or none, is named
    // and refused rather than read as if it were version 1.
    const std::string json = toJson({r});
    EXPECT_FALSE(parseJson(replaced(json, "\"version\":1,", "\"version\":7,"),
                           &out, &error));
    EXPECT_NE(error.find("\"version\" 7"), std::string::npos) << error;
    EXPECT_FALSE(
        parseJson(replaced(json, "\"version\":1,", ""), &out, &error));
    EXPECT_NE(error.find("missing \"version\""), std::string::npos) << error;

    // The CSV header is read in one pass in the writer's order: fixed
    // columns, then the link group, then the status group. Any other
    // arrangement of the groups is refused.
    const std::string links_csv = toCsv({r}, /*include_link_stats=*/true);
    const std::string header = links_csv.substr(0, links_csv.find('\n'));
    const size_t link_at = header.find(",link_");
    const size_t status_at = header.find(",status,");
    ASSERT_NE(link_at, std::string::npos);
    ASSERT_NE(status_at, std::string::npos);
    const std::string fixed = header.substr(0, link_at);
    const std::string link_group = header.substr(link_at, status_at - link_at);
    const std::string status_group = header.substr(status_at);
    const std::string first_link =
        link_group.substr(0, link_group.find(',', 1));
    for (const std::string &bad_header :
         {fixed + status_group + link_group,        // status before links
          fixed + first_link + status_group,        // partial link group
          fixed + ",status,attempts",               // partial status group
          fixed + link_group + link_group,          // repeated group
          fixed + status_group + status_group,      // repeated group
          fixed + link_group + status_group + ",x", // trailing unknown
          fixed + ",x"}) {
        EXPECT_FALSE(parseCsv(bad_header + "\n", &out, &error)) << bad_header;
        EXPECT_NE(error.find("header"), std::string::npos) << error;
    }
    EXPECT_TRUE(parseCsv(header + "\n", &out, &error)) << error;

    // The empty result set is valid in both formats.
    EXPECT_TRUE(parseJson(toJson({}), &out, &error)) << error;
    EXPECT_TRUE(out.empty());
    EXPECT_TRUE(parseCsv(toCsv({}), &out, &error)) << error;
    EXPECT_TRUE(out.empty());
}

// ------------------------------------------------------------ diffing

TEST(ResultStore, SelfDiffPassesWithZeroDeltas)
{
    const auto records = sweptResults();
    const DiffReport report = diffResults(records, records);
    EXPECT_EQ(report.matched.size(), records.size());
    EXPECT_TRUE(report.onlyBaseline.empty());
    EXPECT_TRUE(report.onlyCurrent.empty());
    EXPECT_TRUE(report.duplicateKeys.empty());
    for (const DiffEntry &e : report.matched) {
        EXPECT_EQ(e.deltaMs(), 0.0);
        EXPECT_EQ(e.relDelta(), 0.0);
    }
    EXPECT_TRUE(report.passes(0.0));
    EXPECT_NE(formatDiff(report, 0.0).find("PASS"), std::string::npos);
}

TEST(ResultStore, DiffGatesOnDriftAndRespectsTolerance)
{
    const auto baseline = sweptResults();
    auto current = baseline;
    current[3].makespanMs *= 1.001; // +0.1 % regression

    const DiffReport report = diffResults(baseline, current);
    EXPECT_FALSE(report.passes(0.0));
    ASSERT_EQ(report.exceeding(0.0).size(), 1u);
    EXPECT_EQ(report.exceeding(0.0)[0]->key, baseline[3].scenario.label());
    EXPECT_NEAR(report.exceeding(0.0)[0]->relDelta(), 0.001, 1e-12);
    // Within a 0.5 % budget the drift is tolerated...
    EXPECT_TRUE(report.passes(0.005));
    // ...but not within 0.05 %.
    EXPECT_FALSE(report.passes(0.0005));
    EXPECT_NE(formatDiff(report, 0.0).find("FAIL"), std::string::npos);

    // Improvements beyond tolerance fail too: a stale baseline is a
    // stale baseline in either direction.
    current = baseline;
    current[3].makespanMs *= 0.9;
    EXPECT_FALSE(diffResults(baseline, current).passes(0.01));
}

TEST(ResultStore, DiffFlagsMissingExtraAndDuplicateScenarios)
{
    const auto baseline = sweptResults();
    auto current = baseline;
    const std::string dropped = current.back().scenario.label();
    current.pop_back();
    SweepResult extra = current.front();
    extra.scenario.model = "some-other-model";
    current.push_back(extra);

    const DiffReport report = diffResults(baseline, current);
    ASSERT_EQ(report.onlyBaseline.size(), 1u);
    EXPECT_EQ(report.onlyBaseline[0], dropped);
    ASSERT_EQ(report.onlyCurrent.size(), 1u);
    EXPECT_EQ(report.onlyCurrent[0], extra.scenario.label());
    EXPECT_FALSE(report.passes(1.0)); // no tolerance forgives a set diff

    auto dup = baseline;
    dup.push_back(dup.front());
    EXPECT_FALSE(diffResults(baseline, dup).passes(1.0));
    EXPECT_EQ(diffResults(baseline, dup).duplicateKeys.size(), 1u);
}

// ----------------------------------------------------------- sharding

TEST(ResultStore, ShardsPartitionTheGridDisjointlyInOrder)
{
    const auto grid = ScenarioGrid()
                          .models({"gpt2xl-moe", "mixtral-7b"})
                          .clusters({"testbedA", "testbedB"})
                          .batches({1, 2})
                          .build();
    ASSERT_EQ(grid.size(), 48u);

    for (int n = 1; n <= 5; ++n) {
        std::vector<std::string> merged_labels;
        std::set<std::string> seen;
        for (int k = 1; k <= n; ++k) {
            const auto part = shardScenarios(grid, {k, n});
            for (const Scenario &s : part) {
                EXPECT_TRUE(seen.insert(s.label()).second)
                    << "duplicate across shards: " << s.label();
                merged_labels.push_back(s.label());
            }
        }
        // Union == full grid, in the original order.
        ASSERT_EQ(merged_labels.size(), grid.size()) << "n=" << n;
        for (size_t i = 0; i < grid.size(); ++i)
            EXPECT_EQ(merged_labels[i], grid[i].label()) << "n=" << n;
    }

    // More shards than scenarios: every scenario still lands exactly
    // once, the surplus shards are empty.
    const auto tiny = ScenarioGrid().numLayers({1}).build();
    size_t total = 0;
    for (int k = 1; k <= 50; ++k)
        total += shardScenarios(tiny, {k, 50}).size();
    EXPECT_EQ(total, tiny.size());
}

TEST(ResultStore, ParseShardSpecAcceptsOnlyValidRanges)
{
    ShardSpec spec;
    ASSERT_TRUE(parseShardSpec("1/1", &spec));
    EXPECT_EQ(spec.index, 1);
    EXPECT_EQ(spec.count, 1);
    ASSERT_TRUE(parseShardSpec("3/8", &spec));
    EXPECT_EQ(spec.index, 3);
    EXPECT_EQ(spec.count, 8);
    EXPECT_FALSE(parseShardSpec("", &spec));
    EXPECT_FALSE(parseShardSpec("2", &spec));
    EXPECT_FALSE(parseShardSpec("2/", &spec));
    EXPECT_FALSE(parseShardSpec("/2", &spec));
    EXPECT_FALSE(parseShardSpec("0/2", &spec));
    EXPECT_FALSE(parseShardSpec("3/2", &spec));
    EXPECT_FALSE(parseShardSpec("a/b", &spec));
    EXPECT_FALSE(parseShardSpec("1/2/3", &spec));
}

TEST(ResultStore, ParseShardSpecExplainsRejectionsAndRejectsOverflow)
{
    ShardSpec spec{-7, -7};
    std::string error;

    // K > N and N == 0 name the violated constraint, not just "false".
    EXPECT_FALSE(parseShardSpec("3/2", &spec, &error));
    EXPECT_NE(error.find("'3/2'"), std::string::npos) << error;
    EXPECT_NE(error.find("K must be in [1, N]"), std::string::npos)
        << error;
    EXPECT_FALSE(parseShardSpec("0/0", &spec, &error));
    EXPECT_NE(error.find("N must be >= 1"), std::string::npos) << error;
    EXPECT_FALSE(parseShardSpec("nope", &spec, &error));
    EXPECT_NE(error.find("K/N"), std::string::npos) << error;

    // Values beyond 32 bits used to wrap through the int cast and
    // silently select the wrong shard (4294967297 -> 1); they must be
    // rejected, including digit strings beyond int64.
    EXPECT_FALSE(parseShardSpec("4294967297/4294967298", &spec, &error));
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;
    EXPECT_FALSE(
        parseShardSpec("1/99999999999999999999999999", &spec, &error));
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;

    // The one number grammar (base/number.h): no whitespace or '+'.
    EXPECT_FALSE(parseShardSpec(" 1/ 2", &spec, &error));
    EXPECT_NE(error.find("not an integer"), std::string::npos) << error;
    EXPECT_FALSE(parseShardSpec("1/ 2", &spec, &error));
    EXPECT_FALSE(parseShardSpec("+1/2", &spec, &error));
    EXPECT_FALSE(parseShardSpec("1/+2", &spec, &error));

    // Failures never partially update the output spec.
    EXPECT_EQ(spec.index, -7);
    EXPECT_EQ(spec.count, -7);

    // The error argument stays optional.
    EXPECT_FALSE(parseShardSpec("3/2", &spec));
    ASSERT_TRUE(parseShardSpec("2147483647/2147483647", &spec, &error));
    EXPECT_EQ(spec.index, 2147483647);
}

TEST(ResultStore, MergeAutoDetectsMixedShapeShards)
{
    // One sweep, split in two, persisted in the two on-disk shapes:
    // shard A without the link-util columns (old shape), shard B with
    // them (new shape). A single mergeResults call over what the
    // readers returned must reassemble the full sweep.
    const auto full = sweptResults();
    ASSERT_GE(full.size(), 4u);
    const size_t half = full.size() / 2;
    const std::vector<SweepResult> a(full.begin(), full.begin() + half);
    const std::vector<SweepResult> b(full.begin() + half, full.end());

    std::vector<SweepResult> a_read, b_read;
    std::string error;
    ASSERT_TRUE(parseJson(toJson(a, /*include_link_stats=*/false),
                          &a_read, &error))
        << error;
    ASSERT_TRUE(parseCsv(toCsv(b, /*include_link_stats=*/true), &b_read,
                         &error))
        << error;
    for (const SweepResult &r : a_read)
        EXPECT_FALSE(r.hasLinkStats) << r.scenario.label();
    for (const SweepResult &r : b_read)
        EXPECT_TRUE(r.hasLinkStats) << r.scenario.label();

    std::vector<SweepResult> merged;
    ASSERT_TRUE(mergeResults({a_read, b_read}, &merged, &error)) << error;
    expectBitEqual(merged, full);

    // The merged set diffs clean against the original sweep even
    // though its rows disagree about carrying link stats.
    EXPECT_TRUE(diffResults(full, merged).passes(0.0));
}

TEST(ResultStore, DiffTreatsNonFiniteMakespansAsExceeding)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    auto row = [](const char *model, double ms) {
        SweepResult r;
        r.scenario.model = model;
        r.makespanMs = ms;
        return r;
    };

    // NaN drift would otherwise sail through every tolerance (NaN
    // comparisons are all false), and inf == inf would "match".
    const std::vector<SweepResult> baseline = {
        row("m-nan", 100.0), row("m-inf", inf), row("m-nan2", nan),
        row("m-ok", 100.0)};
    const std::vector<SweepResult> current = {
        row("m-nan", nan), row("m-inf", inf), row("m-nan2", nan),
        row("m-ok", 100.0)};
    const DiffReport report = diffResults(baseline, current);
    ASSERT_EQ(report.matched.size(), 4u);

    const auto bad = report.exceeding(/*tolerance_frac=*/1e9);
    ASSERT_EQ(bad.size(), 3u);
    std::set<std::string> keys;
    for (const DiffEntry *e : bad)
        keys.insert(e->key);
    EXPECT_EQ(keys, (std::set<std::string>{
                        row("m-nan", 0).scenario.label(),
                        row("m-inf", 0).scenario.label(),
                        row("m-nan2", 0).scenario.label()}));
    EXPECT_FALSE(report.passes(1e9));
}

TEST(ResultStore, DiffToleranceBoundaryIsInclusive)
{
    auto row = [](double ms) {
        SweepResult r;
        r.scenario.model = "m";
        r.makespanMs = ms;
        return r;
    };
    // Drift of exactly the tolerance passes (the gate is "exceeds"),
    // one ulp beyond fails, and the bound is symmetric.
    const double tol = (101.0 - 100.0) / 100.0;
    EXPECT_TRUE(diffResults({row(100.0)}, {row(101.0)}).passes(tol));
    EXPECT_TRUE(diffResults({row(100.0)}, {row(99.0)}).passes(tol));
    EXPECT_FALSE(diffResults({row(100.0)},
                             {row(std::nextafter(101.0, 1e9))})
                     .passes(tol));
    EXPECT_FALSE(diffResults({row(100.0)}, {row(98.999999)}).passes(tol));
    // Zero tolerance still accepts bit-identical rows.
    EXPECT_TRUE(diffResults({row(100.0)}, {row(100.0)}).passes(0.0));
}

TEST(ResultStore, MergedShardSweepsAreBitIdenticalToUnsharded)
{
    const auto grid = ScenarioGrid()
                          .models({"gpt2xl-moe"})
                          .clusters({"testbedA", "testbedB"})
                          .numLayers({2})
                          .build();

    SweepEngine full_engine({/*numThreads=*/2});
    const auto full = toSweepResults(full_engine.run(grid));

    // Each shard runs in its own engine, as separate processes would.
    std::vector<std::vector<SweepResult>> shards;
    for (int k = 1; k <= 3; ++k) {
        SweepEngine shard_engine({/*numThreads=*/2});
        shards.push_back(toSweepResults(
            shard_engine.run(shardScenarios(grid, {k, 3}))));
    }

    std::vector<SweepResult> merged;
    std::string error;
    ASSERT_TRUE(mergeResults(shards, &merged, &error)) << error;
    expectBitEqual(full, merged);
    // The acceptance bar: the merged *serialised artifact* is
    // byte-identical to the unsharded one.
    EXPECT_EQ(toJson(full), toJson(merged));
    EXPECT_EQ(toCsv(full), toCsv(merged));
}

TEST(ResultStore, MergeRejectsOverlappingShards)
{
    const auto records = sweptResults();
    std::vector<SweepResult> merged;
    std::string error;
    ASSERT_TRUE(mergeResults({records, {}}, &merged, &error)) << error;
    EXPECT_EQ(merged.size(), records.size());
    EXPECT_FALSE(mergeResults({records, records}, &merged, &error));
    EXPECT_NE(error.find("duplicate"), std::string::npos);
    EXPECT_TRUE(merged.empty());
}

} // namespace
} // namespace fsmoe::runtime
