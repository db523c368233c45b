/**
 * @file
 * Tests for deterministic fault injection: spec parsing, the
 * disabled-is-free gate, and the core contract that injection
 * decisions are a pure function of (seed, site, key, attempt) —
 * identical across reconfigurations, sensitive to every input.
 */
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/fault.h"

namespace fsmoe::runtime::fault {
namespace {

/** RAII: leave injection disabled no matter how a test exits. */
struct FaultGuard
{
    FaultGuard() { reset(); }
    ~FaultGuard() { reset(); }
};

std::string
keyFor(int i)
{
    return "model/cluster/Sched/b" + std::to_string(i) + "/L1024";
}

TEST(Fault, ParseSpecAcceptsFullSpecInAnyOrder)
{
    FaultConfig cfg;
    std::string error;
    ASSERT_TRUE(parseSpec(
        "kill-after=12,torn=0.2,timeout=0.05,crash=0.1,eval=0.3,seed=7",
        &cfg, &error))
        << error;
    EXPECT_EQ(cfg.seed, 7u);
    EXPECT_DOUBLE_EQ(cfg.rate[static_cast<int>(Site::EvalError)], 0.3);
    EXPECT_DOUBLE_EQ(cfg.rate[static_cast<int>(Site::WorkerCrash)], 0.1);
    EXPECT_DOUBLE_EQ(cfg.rate[static_cast<int>(Site::WorkerTimeout)],
                     0.05);
    EXPECT_DOUBLE_EQ(cfg.rate[static_cast<int>(Site::TornJournalWrite)],
                     0.2);
    EXPECT_EQ(cfg.killAfterAppends, 12u);
    EXPECT_TRUE(cfg.anyEnabled());

    FaultConfig partial;
    ASSERT_TRUE(parseSpec("eval=1", &partial, &error)) << error;
    EXPECT_DOUBLE_EQ(partial.rate[static_cast<int>(Site::EvalError)],
                     1.0);
    EXPECT_EQ(partial.killAfterAppends, 0u);
}

TEST(Fault, ParseSpecRejectsMalformedInputAndLeavesOutUntouched)
{
    FaultConfig cfg;
    cfg.seed = 99;
    std::string error;
    const char *bad[] = {
        "bogus=1",       // unknown key
        "worker-kill=1", // merged into crash
        "delay=1",       // merged into timeout
        "eval",          // missing '='
        "eval=1.5",      // rate out of range
        "eval=-0.1",     // rate out of range
        "eval=nope",     // not a number
        "eval=nan",      // not a number, and would fire every time
        "eval=",         // empty rate
        "eval= 0.5",     // leading whitespace
        "seed=x",        // not a number
        "kill-after=x",  // not a number
    };
    for (const char *spec : bad) {
        SCOPED_TRACE(spec);
        error.clear();
        EXPECT_FALSE(parseSpec(spec, &cfg, &error));
        EXPECT_FALSE(error.empty());
        EXPECT_EQ(cfg.seed, 99u) << "*out modified on failure";
    }
}

TEST(Fault, DisabledInjectsNothing)
{
    FaultGuard guard;
    EXPECT_FALSE(enabled());
    for (int i = 0; i < 32; ++i)
        EXPECT_FALSE(shouldInject(Site::EvalError, keyFor(i), 1));
    EXPECT_FALSE(shouldKillAfterAppend());
}

TEST(Fault, DecisionsAreDeterministicAcrossReconfiguration)
{
    FaultGuard guard;
    FaultConfig cfg;
    std::string error;
    ASSERT_TRUE(parseSpec("seed=42,eval=0.5", &cfg, &error)) << error;

    const int n = 200;
    std::vector<bool> first;
    configure(cfg);
    for (int i = 0; i < n; ++i)
        first.push_back(shouldInject(Site::EvalError, keyFor(i), 1));

    reset();
    configure(cfg);
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(shouldInject(Site::EvalError, keyFor(i), 1), first[i])
            << "decision " << i << " changed across reconfiguration";

    // A 0.5 rate over 200 keys must hit both outcomes (the chance of
    // not doing so is 2^-199 — a failure here means broken hashing).
    EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
    EXPECT_NE(std::count(first.begin(), first.end(), true), n);
}

TEST(Fault, DecisionsAreSensitiveToSeedSiteKeyAndAttempt)
{
    FaultGuard guard;
    FaultConfig cfg;
    std::string error;
    ASSERT_TRUE(parseSpec("seed=1,eval=0.5,crash=0.5", &cfg, &error))
        << error;
    configure(cfg);

    const int n = 200;
    int attempt_flips = 0, site_flips = 0;
    for (int i = 0; i < n; ++i) {
        bool a1 = shouldInject(Site::EvalError, keyFor(i), 1);
        if (shouldInject(Site::EvalError, keyFor(i), 2) != a1)
            ++attempt_flips;
        if (shouldInject(Site::WorkerCrash, keyFor(i), 1) != a1)
            ++site_flips;
    }
    EXPECT_GT(attempt_flips, 0) << "attempt is not part of the decision";
    EXPECT_GT(site_flips, 0) << "site is not part of the decision";

    std::vector<bool> seed1;
    for (int i = 0; i < n; ++i)
        seed1.push_back(shouldInject(Site::EvalError, keyFor(i), 1));
    cfg.seed = 2;
    configure(cfg);
    std::vector<bool> seed2;
    for (int i = 0; i < n; ++i)
        seed2.push_back(shouldInject(Site::EvalError, keyFor(i), 1));
    EXPECT_NE(seed1, seed2) << "seed is not part of the decision";
}

TEST(Fault, RateZeroNeverFiresAndRateOneAlwaysFires)
{
    FaultGuard guard;
    FaultConfig cfg;
    std::string error;
    ASSERT_TRUE(parseSpec("seed=5,eval=1,crash=0", &cfg, &error)) << error;
    configure(cfg);
    for (int i = 0; i < 64; ++i) {
        EXPECT_TRUE(shouldInject(Site::EvalError, keyFor(i), i % 4 + 1));
        EXPECT_FALSE(
            shouldInject(Site::WorkerCrash, keyFor(i), i % 4 + 1));
    }
}

TEST(Fault, KillAfterFiresExactlyOnceAtTheConfiguredAppend)
{
    FaultGuard guard;
    FaultConfig cfg;
    std::string error;
    ASSERT_TRUE(parseSpec("kill-after=3", &cfg, &error)) << error;
    configure(cfg);
    EXPECT_FALSE(shouldKillAfterAppend()); // append 1
    EXPECT_FALSE(shouldKillAfterAppend()); // append 2
    EXPECT_TRUE(shouldKillAfterAppend());  // append 3: fire
    EXPECT_FALSE(shouldKillAfterAppend()); // past the threshold

    // configure() restarts the append count.
    configure(cfg);
    EXPECT_FALSE(shouldKillAfterAppend());
    EXPECT_FALSE(shouldKillAfterAppend());
    EXPECT_TRUE(shouldKillAfterAppend());
}

TEST(Fault, StopAfterParsesAPlainCountAndRejectsEverythingElse)
{
    FaultConfig cfg;
    std::string error;
    ASSERT_TRUE(parseSpec("stop-after=10", &cfg, &error)) << error;
    EXPECT_EQ(cfg.stopAfterResults, 10u);
    EXPECT_EQ(cfg.killAfterAppends, 0u);
    EXPECT_TRUE(cfg.anyEnabled());
    ASSERT_TRUE(parseSpec("stop-after=0", &cfg, &error)) << error;
    EXPECT_FALSE(cfg.anyEnabled()) << "0 disables, like kill-after=0";

    const char *bad[] = {
        "stop-after=",                     // empty
        "stop-after=-1",                   // negative: no wrap-around
        "stop-after=+3",                   // signed
        "stop-after= 3",                   // leading whitespace
        "stop-after=3x",                   // trailing garbage
        "stop-after=18446744073709551616", // 2^64 overflows
    };
    for (const char *spec : bad) {
        SCOPED_TRACE(spec);
        error.clear();
        EXPECT_FALSE(parseSpec(spec, &cfg, &error));
        EXPECT_NE(error.find("stop-after"), std::string::npos) << error;
    }
}

TEST(Fault, StopAfterFiresExactlyOnceAtTheConfiguredResult)
{
    FaultGuard guard;
    EXPECT_FALSE(shouldStopAfterResult()); // disabled
    FaultConfig cfg;
    std::string error;
    ASSERT_TRUE(parseSpec("stop-after=2,kill-after=1", &cfg, &error))
        << error;
    configure(cfg);
    EXPECT_FALSE(shouldStopAfterResult()); // result 1
    EXPECT_TRUE(shouldStopAfterResult());  // result 2: fire
    EXPECT_FALSE(shouldStopAfterResult()); // past the threshold
    // The two counters are independent.
    EXPECT_TRUE(shouldKillAfterAppend());
}

TEST(Fault, ResetDisablesAndConfigReportsTheActivePlan)
{
    FaultGuard guard;
    FaultConfig cfg;
    std::string error;
    ASSERT_TRUE(parseSpec("seed=9,torn=0.25", &cfg, &error)) << error;
    configure(cfg);
    EXPECT_TRUE(enabled());
    EXPECT_EQ(config().seed, 9u);
    EXPECT_DOUBLE_EQ(
        config().rate[static_cast<int>(Site::TornJournalWrite)], 0.25);

    reset();
    EXPECT_FALSE(enabled());
    EXPECT_FALSE(config().anyEnabled());
}

TEST(Fault, SiteNamesMatchSpecKeywords)
{
    EXPECT_STREQ(siteName(Site::EvalError), "eval");
    EXPECT_STREQ(siteName(Site::WorkerCrash), "crash");
    EXPECT_STREQ(siteName(Site::WorkerTimeout), "timeout");
    EXPECT_STREQ(siteName(Site::TornJournalWrite), "torn");
    EXPECT_STREQ(siteName(Site::TransportDrop), "drop");
    EXPECT_STREQ(siteName(Site::TransportDisconnect), "disconnect");
    EXPECT_EQ(static_cast<int>(Site::NumSites), 6);
}

TEST(Fault, ParseSpecAcceptsTheTransportSites)
{
    FaultConfig cfg;
    std::string error;
    ASSERT_TRUE(parseSpec("seed=3,drop=0.5,disconnect=0.125", &cfg, &error))
        << error;
    EXPECT_DOUBLE_EQ(cfg.rate[static_cast<int>(Site::TransportDrop)],
                     0.5);
    EXPECT_DOUBLE_EQ(
        cfg.rate[static_cast<int>(Site::TransportDisconnect)], 0.125);
    EXPECT_TRUE(cfg.anyEnabled());

    // Every site keyword must round-trip through the parser alone.
    for (int i = 0; i < static_cast<int>(Site::NumSites); ++i) {
        const Site site = static_cast<Site>(i);
        FaultConfig one;
        const std::string spec = std::string(siteName(site)) + "=1";
        ASSERT_TRUE(parseSpec(spec, &one, &error)) << spec << ": " << error;
        EXPECT_DOUBLE_EQ(one.rate[i], 1.0) << spec;
    }
}

} // namespace
} // namespace fsmoe::runtime::fault
