/**
 * @file
 * Self-tests for fsmoe_lint: every hazard class must be flagged with
 * the exact expected count on its fixture, the clean fixture must
 * produce nothing, the allowlist must suppress (only) what it names,
 * and the real src/ tree must lint clean under the shipped allowlist.
 *
 * Paths come from the build:
 *   FSMOE_LINT_FIXTURES  tools/fsmoe_lint/fixtures
 *   FSMOE_LINT_ALLOWLIST tools/fsmoe_lint/allowlist.txt (shipped)
 *   FSMOE_LINT_SRC       src/
 */
#include "lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

namespace {

using fsmoe::lint::AllowEntry;
using fsmoe::lint::Finding;
using fsmoe::lint::lintPaths;
using fsmoe::lint::loadAllowlist;

std::string
fixture(const std::string &name)
{
    return std::string(FSMOE_LINT_FIXTURES) + "/" + name;
}

/** Lint one fixture with no allowlist; return findings. */
std::vector<Finding>
lintFixture(const std::string &name)
{
    std::string error;
    std::vector<Finding> out =
        lintPaths({fixture(name)}, {}, nullptr, &error);
    EXPECT_EQ(error, "");
    return out;
}

/** Count findings per rule id. */
std::map<std::string, int>
byRule(const std::vector<Finding> &findings)
{
    std::map<std::string, int> counts;
    for (const Finding &f : findings)
        ++counts[f.rule];
    return counts;
}

struct FixtureCase
{
    const char *file;
    const char *rule;
    int count;         ///< Expected findings for `rule`.
    int totalFindings; ///< Expected findings across all rules.
};

// One positive fixture per hazard class, with exact counts. The
// float-accum fixture also trips unordered-iter (the accumulation sits
// inside an unordered loop with no sink) — that overlap is by design,
// so its total is 2 while the rule-specific count is 1.
const FixtureCase kCases[] = {
    {"hazard_unordered_iter.cc", "unordered-iter", 2, 2},
    {"hazard_float_accum.cc", "float-accum-unordered", 1, 2},
    {"hazard_banned_rand.cc", "banned-rand", 3, 3},
    {"hazard_banned_time.cc", "banned-time", 3, 3},
    {"hazard_pointer_hash.cc", "pointer-hash", 1, 1},
    {"hazard_thread_id.cc", "thread-id", 2, 2},
    {"hazard_addr_order.cc", "addr-order", 2, 2},
    {"hazard_static_mutable.cc", "static-mutable", 2, 2},
    {"hazard_nonatomic_write.cc", "nonatomic-write", 3, 3},
    // The system_clock line also trips banned-time — by design, same
    // as the float-accum overlap above.
    {"hazard_wallclock_deadline.cc", "wallclock-deadline", 3, 4},
    {"hazard_lenient_number.cc", "lenient-number", 4, 4},
};

TEST(FsmoeLint, EveryHazardClassIsFlaggedWithExactCount)
{
    for (const FixtureCase &c : kCases) {
        SCOPED_TRACE(c.file);
        std::vector<Finding> findings = lintFixture(c.file);
        EXPECT_EQ(static_cast<int>(findings.size()), c.totalFindings);
        std::map<std::string, int> counts = byRule(findings);
        EXPECT_EQ(counts[c.rule], c.count);
    }
}

TEST(FsmoeLint, EveryRuleIdHasAPositiveFixture)
{
    std::map<std::string, int> seen;
    for (const FixtureCase &c : kCases)
        for (const Finding &f : lintFixture(c.file))
            ++seen[f.rule];
    for (const std::string &rule : fsmoe::lint::ruleIds())
        EXPECT_GT(seen[rule], 0) << "no fixture exercises " << rule;
}

TEST(FsmoeLint, CleanFixtureProducesNoFindings)
{
    std::vector<Finding> findings = lintFixture("clean.cc");
    for (const Finding &f : findings)
        ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule
                      << "] " << f.message;
}

TEST(FsmoeLint, FindingsCarryFileLineAndExcerpt)
{
    std::vector<Finding> findings =
        lintFixture("hazard_banned_rand.cc");
    ASSERT_EQ(findings.size(), 3u);
    for (const Finding &f : findings) {
        EXPECT_NE(f.file.find("hazard_banned_rand.cc"),
                  std::string::npos);
        EXPECT_GT(f.line, 0);
        EXPECT_FALSE(f.excerpt.empty());
    }
    // Deterministic report order: ascending line numbers.
    EXPECT_TRUE(std::is_sorted(
        findings.begin(), findings.end(),
        [](const Finding &a, const Finding &b) { return a.line < b.line; }));
}

TEST(FsmoeLint, AllowlistSuppressesExactlyTheNamedSite)
{
    std::string error;
    std::vector<AllowEntry> allow;
    ASSERT_TRUE(loadAllowlist(fixture("allowlist.txt"), &allow, &error))
        << error;
    ASSERT_EQ(allow.size(), 1u);
    EXPECT_EQ(allow[0].rule, "unordered-iter");

    // Without the allowlist: one finding.
    std::vector<Finding> raw = lintFixture("allowlisted.cc");
    ASSERT_EQ(raw.size(), 1u);
    EXPECT_EQ(raw[0].rule, "unordered-iter");

    // With it: zero findings, one suppression counted.
    size_t suppressed = 0;
    std::vector<Finding> filtered = lintPaths(
        {fixture("allowlisted.cc")}, allow, &suppressed, &error);
    EXPECT_EQ(error, "");
    EXPECT_TRUE(filtered.empty());
    EXPECT_EQ(suppressed, 1u);

    // The allowlist is site-specific: it must not mask the same rule
    // elsewhere.
    std::vector<Finding> other = lintPaths(
        {fixture("hazard_unordered_iter.cc")}, allow, &suppressed,
        &error);
    EXPECT_EQ(other.size(), 2u);
}

TEST(FsmoeLint, MalformedAllowlistIsRejected)
{
    std::string error;
    std::vector<AllowEntry> allow;
    EXPECT_FALSE(
        loadAllowlist("/nonexistent/allowlist.txt", &allow, &error));
    EXPECT_FALSE(error.empty());
}

TEST(FsmoeLint, RealTreeLintsCleanUnderShippedAllowlist)
{
    std::string error;
    std::vector<AllowEntry> allow;
    ASSERT_TRUE(loadAllowlist(FSMOE_LINT_ALLOWLIST, &allow, &error))
        << error;
    size_t suppressed = 0;
    std::vector<Finding> findings =
        lintPaths({FSMOE_LINT_SRC}, allow, &suppressed, &error);
    EXPECT_EQ(error, "");
    for (const Finding &f : findings)
        ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule
                      << "] " << f.message << "\n    > " << f.excerpt;
    // The shipped allowlist entries must all still be in use; a stale
    // entry means the underlying site was fixed and the entry should
    // be removed.
    EXPECT_EQ(suppressed, allow.size());
}

} // namespace
