/**
 * @file
 * fsmoe_lint: a static determinism linter for the FSMoE tree.
 *
 * The repo's central contract is byte-identical results across thread
 * counts, shards, processes, and build types (see docs/CORRECTNESS.md
 * and docs/PERFORMANCE.md). The dynamic gates (baseline `cmp`, fuzz
 * vs tests/sim_reference.h) catch a violation only after it lands on
 * a covered path; this linter catches the *hazard classes* that cause
 * them at lint time, before any run:
 *
 *   unordered-iter        iteration over std::unordered_{map,set}
 *                         whose results flow onward in hash order
 *                         (output, cache keys, appended collections)
 *                         without a sorting sink
 *   float-accum-unordered floating-point accumulation inside such a
 *                         loop (float addition is not associative, so
 *                         even a sorted sink cannot repair the sum)
 *   banned-rand           std::rand / srand / std::random_device
 *                         (unseeded or global-state randomness)
 *   banned-time           wall-clock sources: time(), gettimeofday,
 *                         clock(), std::chrono::system_clock
 *                         (steady_clock durations for telemetry are
 *                         fine — they never feed results)
 *   pointer-hash          std::hash over a pointer type (addresses
 *                         differ per run under ASLR)
 *   thread-id             std::this_thread::get_id / pthread_self /
 *                         gettid feeding values
 *   addr-order            address-keyed ordering:
 *                         reinterpret_cast<[u]intptr_t>,
 *                         std::less<T*>
 *   static-mutable        a mutable static / namespace-scope object
 *                         with no documented thread-safety story
 *                         (comment keywords: "thread-safe",
 *                         "guarded by", "synchroni...", ...)
 *   nonatomic-write       std::ofstream / fopen straight to a final
 *                         output path
 *   wallclock-deadline    a wall-clock source feeding deadline or
 *                         timeout arithmetic
 *   lenient-number        strto* / ato* / std::sto* text-to-number
 *                         conversions (base/number.h's parseNumber
 *                         is the one strict parser)
 *
 * The analysis is a deliberately simple lexical scan (comments and
 * string literals are blanked, declarations are tracked by name, a
 * .cc file also ingests declarations from its same-basename header).
 * False positives are expected and handled by an *explicit, commented
 * allowlist file* (tools/fsmoe_lint/allowlist.txt): every entry names
 * the rule, the file, and a distinctive substring of the offending
 * line, plus a comment explaining why the site is safe. The linter is
 * itself deterministic: files are scanned in sorted path order and
 * findings are reported in (file, line) order.
 *
 * Exit codes (main.cc): 0 no findings, 1 findings, 2 usage/IO error.
 */
#ifndef FSMOE_TOOLS_LINT_H
#define FSMOE_TOOLS_LINT_H

#include <string>
#include <vector>

namespace fsmoe::lint {

/** One hazard hit. */
struct Finding
{
    std::string file;    ///< Path as given to the scanner.
    int line = 0;        ///< 1-based line number.
    std::string rule;    ///< Rule id, e.g. "unordered-iter".
    std::string message; ///< Human-readable explanation.
    std::string excerpt; ///< Trimmed source line (allowlist matching).
};

/** One allowlist entry: rule + file suffix + line substring. */
struct AllowEntry
{
    std::string rule;       ///< Rule id or "*" for any rule.
    std::string fileSuffix; ///< Matches when the path ends with this.
    std::string substring;  ///< Must occur in the offending line.
};

/** All rule ids, in report order. */
const std::vector<std::string> &ruleIds();

/**
 * Parse an allowlist file. Lines are
 *   rule<whitespace>file-suffix<whitespace>line-substring...
 * ('#' comments and blank lines ignored; the substring is the rest of
 * the line, so it may contain spaces). Returns false and sets *error
 * on I/O failure or a malformed entry.
 */
bool loadAllowlist(const std::string &path, std::vector<AllowEntry> *out,
                   std::string *error);

/**
 * Lint one file's contents. @p header_text supplies declarations of a
 * sibling header scanned for container types only (pass "" if none).
 */
std::vector<Finding> lintSource(const std::string &path,
                                const std::string &text,
                                const std::string &header_text);

/**
 * Lint files/directories: directories are walked recursively for
 * .h/.cc/.cpp files, paths are deduplicated and sorted, each .cc/.cpp
 * pairs with its same-directory same-basename .h when present.
 * Findings suppressed by @p allow are dropped; if @p suppressed is
 * non-null it receives their count.
 */
std::vector<Finding> lintPaths(const std::vector<std::string> &paths,
                               const std::vector<AllowEntry> &allow,
                               size_t *suppressed, std::string *error);

} // namespace fsmoe::lint

#endif // FSMOE_TOOLS_LINT_H
