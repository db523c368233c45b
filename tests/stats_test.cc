/**
 * @file
 * Unit tests for the base/stats metrics registry — counter/gauge
 * semantics, histogram bucketing, exactness of concurrent updates,
 * snapshot determinism and reset behaviour — and for
 * the levelled logging layer (FSMOE_LOG_LEVEL semantics and warning
 * deduplication) that rides on the same observability satellite.
 */
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/logging.h"
#include "base/stats.h"

namespace fsmoe::stats {
namespace {

TEST(Counter, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddAndHighWater)
{
    Gauge g;
    g.set(3.0);
    EXPECT_DOUBLE_EQ(g.value(), 3.0);
    EXPECT_DOUBLE_EQ(g.maxValue(), 3.0);
    g.set(1.0);
    EXPECT_DOUBLE_EQ(g.value(), 1.0);
    EXPECT_DOUBLE_EQ(g.maxValue(), 3.0); // high-water survives drops
    g.add(5.0);
    EXPECT_DOUBLE_EQ(g.value(), 6.0);
    EXPECT_DOUBLE_EQ(g.maxValue(), 6.0);
    g.updateMax(100.0);
    EXPECT_DOUBLE_EQ(g.value(), 6.0); // updateMax leaves the value alone
    EXPECT_DOUBLE_EQ(g.maxValue(), 100.0);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    EXPECT_DOUBLE_EQ(g.maxValue(), 0.0);
}

TEST(Histogram, BucketingLandsOnFirstBoundAtOrAboveValue)
{
    Histogram h({1.0, 10.0, 100.0});
    h.observe(0.5);   // <= 1    -> bucket 0
    h.observe(1.0);   // <= 1    -> bucket 0 (boundary belongs below)
    h.observe(1.5);   // <= 10   -> bucket 1
    h.observe(10.0);  // <= 10   -> bucket 1
    h.observe(99.9);  // <= 100  -> bucket 2
    h.observe(100.5); // overflow -> bucket 3
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_DOUBLE_EQ(h.minValue(), 0.5);
    EXPECT_DOUBLE_EQ(h.maxValue(), 100.5);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 10.0 + 99.9 + 100.5);
    EXPECT_DOUBLE_EQ(h.mean(), h.sum() / 6.0);
}

TEST(Histogram, EmptyAggregatesAreZero)
{
    Histogram h({1.0});
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    EXPECT_DOUBLE_EQ(h.minValue(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, ResetKeepsBoundsAndEmptiesAggregates)
{
    Histogram h({1.0, 2.0});
    h.observe(0.5);
    h.observe(5.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucketCount(0), 0u);
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_DOUBLE_EQ(h.minValue(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 0.0);
    ASSERT_EQ(h.bounds().size(), 2u);
    h.observe(1.5); // still usable after reset
    EXPECT_EQ(h.bucketCount(1), 1u);
}

TEST(Histogram, DefaultTimeBucketsAreStrictlyIncreasing)
{
    const std::vector<double> &b = defaultTimeBucketsMs();
    ASSERT_FALSE(b.empty());
    for (size_t i = 1; i < b.size(); ++i)
        EXPECT_LT(b[i - 1], b[i]);
}

TEST(Registry, FindOrCreateReturnsStableReferences)
{
    Registry reg;
    Counter &a = reg.counter("x.hits");
    Counter &b = reg.counter("x.hits");
    EXPECT_EQ(&a, &b);
    Counter &c = reg.counter("x.misses");
    EXPECT_NE(&a, &c);
    a.inc();
    EXPECT_EQ(reg.counter("x.hits").value(), 1u);
    Histogram &h1 = reg.histogram("x.ms", {1.0, 2.0});
    Histogram &h2 = reg.histogram("x.ms", {1.0, 2.0});
    EXPECT_EQ(&h1, &h2);
}

TEST(Registry, ConcurrentIncrementsSumExactly)
{
    Registry reg;
    Counter &c = reg.counter("contended.counter");
    Gauge &g = reg.gauge("contended.gauge");
    Histogram &h = reg.histogram("contended.ms", {0.5, 1.5, 2.5});
    constexpr int kThreads = 8;
    constexpr int kIters = 10000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&]() {
            for (int i = 0; i < kIters; ++i) {
                c.inc();
                g.add(1.0);
                h.observe(1.0);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kIters);
    EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kIters);
    EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kIters);
    EXPECT_EQ(h.bucketCount(1), static_cast<uint64_t>(kThreads) * kIters);
    EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads) * kIters);
    EXPECT_DOUBLE_EQ(h.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 1.0);
}

TEST(Registry, SnapshotIsDeterministicAcrossInstances)
{
    const auto populate = [](Registry &reg) {
        reg.counter("b.second").inc(2);
        reg.counter("a.first").inc(1);
        reg.gauge("c.depth").set(4.5);
        reg.histogram("d.ms", {1.0, 10.0}).observe(3.25);
    };
    Registry r1, r2;
    populate(r1);
    populate(r2);
    EXPECT_EQ(r1.snapshotJson(), r2.snapshotJson());

    const std::string snap = r1.snapshotJson();
    EXPECT_NE(snap.find("\"schema\":\"fsmoe-stats\""), std::string::npos);
    EXPECT_NE(snap.find("\"a.first\":1"), std::string::npos);
    EXPECT_NE(snap.find("\"b.second\":2"), std::string::npos);
    EXPECT_NE(snap.find("\"le\":\"inf\""), std::string::npos);
    // Lexicographic order: a.first before b.second.
    EXPECT_LT(snap.find("a.first"), snap.find("b.second"));
}

TEST(Registry, ResetZeroesButKeepsRegistrations)
{
    Registry reg;
    Counter &c = reg.counter("r.count");
    Histogram &h = reg.histogram("r.ms", {1.0});
    c.inc(7);
    h.observe(0.5);
    reg.reset();
    EXPECT_EQ(c.value(), 0u); // same reference, zeroed in place
    EXPECT_EQ(h.count(), 0u);
    c.inc();
    EXPECT_EQ(reg.counter("r.count").value(), 1u);
}

// ------------------------------------------------------------- logging

TEST(Logging, LevelGatesEnablement)
{
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_FALSE(logEnabled(LogLevel::Warn));
    EXPECT_FALSE(logEnabled(LogLevel::Verbose));
    setLogLevel(LogLevel::Warn);
    EXPECT_TRUE(logEnabled(LogLevel::Warn));
    EXPECT_FALSE(logEnabled(LogLevel::Verbose));
    setLogLevel(LogLevel::Verbose);
    EXPECT_TRUE(logEnabled(LogLevel::Verbose));
    setLogLevel(saved);
}

TEST(Logging, RepeatedWarningsAreDeduplicated)
{
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Warn);
    flushRepeatedWarnings(); // start from an empty dedup table
    const size_t before = suppressedWarningCount();
    ASSERT_EQ(before, 0u);
    for (int i = 0; i < 5; ++i)
        FSMOE_WARN("stats_test repeated warning");
    // One printed, four suppressed — identical site and text.
    EXPECT_EQ(suppressedWarningCount(), 4u);
    flushRepeatedWarnings();
    EXPECT_EQ(suppressedWarningCount(), 0u);
    setLogLevel(saved);
}

TEST(Logging, SilencedWarningsDoNotTouchTheDedupTable)
{
    const LogLevel saved = logLevel();
    flushRepeatedWarnings();
    setLogLevel(LogLevel::Silent);
    for (int i = 0; i < 3; ++i)
        FSMOE_WARN("stats_test silent warning");
    EXPECT_EQ(suppressedWarningCount(), 0u);
    setLogLevel(saved);
}

} // namespace
} // namespace fsmoe::stats
