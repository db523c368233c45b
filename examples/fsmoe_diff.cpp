/**
 * @file
 * fsmoe_diff — compare and merge persisted sweep result files.
 *
 * Diff mode compares two result files (JSON or CSV, dispatched on the
 * ".csv" extension) scenario-by-scenario and gates on drift:
 *
 *   fsmoe_diff BASELINE CURRENT [--tolerance PCT]
 *
 * exits 0 when the scenario sets match and every makespan is within
 * the relative tolerance (default 0 = bit-exact), 1 on any drift or
 * set mismatch, 2 on usage or IO errors. Merge mode concatenates
 * shard files (as produced by `fsmoe_sweep --shard K/N --out-json`)
 * in argument order, rejecting duplicate scenarios:
 *
 *   fsmoe_diff --merge OUT SHARD1 SHARD2 [...]
 *
 * Because shards are contiguous grid slices, merging them in K order
 * writes a file byte-identical to the unsharded sweep's; when every
 * shard record carries link stats (`--link-util`), so does the merge.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/number.h"
#include "runtime/result_store.h"

namespace {

using namespace fsmoe;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s BASELINE CURRENT [--tolerance PCT]\n"
                 "       %s --merge OUT SHARD1 SHARD2 [...]\n",
                 argv0, argv0);
    return 2;
}

bool
readOrComplain(const std::string &path,
               std::vector<runtime::SweepResult> *out)
{
    std::string error;
    if (!runtime::readResults(path, out, &error)) {
        std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    return true;
}

int
mergeMain(int argc, char **argv)
{
    // argv: fsmoe_diff --merge OUT IN1 [IN2 ...]
    if (argc < 4)
        return usage(argv[0]);
    const std::string out_path = argv[2];
    std::vector<std::vector<runtime::SweepResult>> shards;
    for (int i = 3; i < argc; ++i) {
        shards.emplace_back();
        if (!readOrComplain(argv[i], &shards.back()))
            return 2;
    }
    std::vector<runtime::SweepResult> merged;
    std::string error;
    if (!runtime::mergeResults(shards, &merged, &error)) {
        std::fprintf(stderr, "merge failed: %s\n", error.c_str());
        return 1;
    }
    // The link group survives the merge when every record carries it.
    bool links = !merged.empty();
    for (const runtime::SweepResult &r : merged)
        links = links && r.hasLinkStats;
    if (!runtime::writeResults(out_path, merged, links))
        return 2;
    std::printf("merged %zu shards (%zu results) into %s\n",
                shards.size(), merged.size(), out_path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "--merge") == 0)
        return mergeMain(argc, argv);

    const char *baseline_path = nullptr;
    const char *current_path = nullptr;
    double tolerance_pct = 0.0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--tolerance") == 0) {
            if (i + 1 >= argc)
                return usage(argv[0]);
            if (!parseNumber(argv[++i], &tolerance_pct) ||
                !std::isfinite(tolerance_pct) || tolerance_pct < 0.0) {
                std::fprintf(stderr, "bad --tolerance '%s'\n", argv[i]);
                return 2;
            }
        } else if (std::strncmp(argv[i], "--", 2) == 0) {
            return usage(argv[0]); // unknown flag, not a file path
        } else if (baseline_path == nullptr) {
            baseline_path = argv[i];
        } else if (current_path == nullptr) {
            current_path = argv[i];
        } else {
            return usage(argv[0]);
        }
    }
    if (baseline_path == nullptr || current_path == nullptr)
        return usage(argv[0]);

    std::vector<runtime::SweepResult> baseline, current;
    if (!readOrComplain(baseline_path, &baseline) ||
        !readOrComplain(current_path, &current))
        return 2;

    const double tol = tolerance_pct / 100.0;
    const auto report = runtime::diffResults(baseline, current);
    std::printf("%s (%zu results) vs %s (%zu results):\n%s",
                baseline_path, baseline.size(), current_path,
                current.size(), runtime::formatDiff(report, tol).c_str());
    return report.passes(tol) ? 0 : 1;
}
