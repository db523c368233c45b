/**
 * @file
 * fsmoe_lint command line: scan files/directories for the determinism
 * hazard classes documented in lint.h and docs/CORRECTNESS.md.
 *
 *   fsmoe_lint [--allowlist FILE] [--list-rules] [--quiet] PATH...
 *
 * Exit status: 0 when no (unsuppressed) findings, 1 when findings
 * were reported, 2 on usage or I/O errors. The fsmoe_lint_tree ctest
 * case runs
 *   fsmoe_lint --allowlist tools/fsmoe_lint/allowlist.txt src/ examples/
 * as a gate; the fixture self-tests (lint_test.cc) pin the exact
 * finding counts per hazard class.
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "lint.h"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--allowlist FILE] [--list-rules] [--quiet] "
                 "PATH...\n"
                 "  Scans .h/.cc/.cpp files (directories recursively) for\n"
                 "  determinism hazards; exit 0 = clean, 1 = findings,\n"
                 "  2 = usage/IO error.\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> paths;
    std::vector<fsmoe::lint::AllowEntry> allow;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--allowlist") == 0 && i + 1 < argc) {
            std::string err;
            if (!fsmoe::lint::loadAllowlist(argv[++i], &allow, &err)) {
                std::fprintf(stderr, "fsmoe_lint: %s\n", err.c_str());
                return 2;
            }
        } else if (std::strcmp(argv[i], "--list-rules") == 0) {
            for (const std::string &r : fsmoe::lint::ruleIds())
                std::printf("%s\n", r.c_str());
            return 0;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else if (argv[i][0] == '-') {
            return usage(argv[0]);
        } else {
            paths.push_back(argv[i]);
        }
    }
    if (paths.empty())
        return usage(argv[0]);

    size_t suppressed = 0;
    std::string err;
    std::vector<fsmoe::lint::Finding> findings =
        fsmoe::lint::lintPaths(paths, allow, &suppressed, &err);
    if (!err.empty()) {
        std::fprintf(stderr, "fsmoe_lint: %s\n", err.c_str());
        return 2;
    }
    for (const fsmoe::lint::Finding &f : findings) {
        std::printf("%s:%d: [%s] %s\n    > %s\n", f.file.c_str(), f.line,
                    f.rule.c_str(), f.message.c_str(), f.excerpt.c_str());
    }
    if (!quiet) {
        std::printf("fsmoe_lint: %zu finding(s), %zu allowlisted\n",
                    findings.size(), suppressed);
    }
    return findings.empty() ? 0 : 1;
}
