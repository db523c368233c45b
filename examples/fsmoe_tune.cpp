/**
 * @file
 * fsmoe_tune — the schedule advisor CLI.
 *
 * Answers "which schedule (and parameters) should I run?" for one
 * (model, cluster, batch) configuration by searching every registered
 * schedule's declared parameter space through the cached sweep engine
 * (see docs/TUNING.md). Prints the best canonical spec and the
 * (makespan, comm busy, peak comm memory) Pareto frontier; optionally
 * persists the answer JSON and an advisor cache so repeated queries
 * are lookups, not searches.
 *
 * Everything printed and written is deterministic — byte-identical
 * across runs, thread counts, and Debug/Release builds — which is
 * what lets CI `cmp` the artifacts.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "base/fileio.h"
#include "base/json.h"
#include "runtime/tuner.h"

using namespace fsmoe;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "Recommend a schedule for one workload configuration.\n"
        "\n"
        "  --model NAME       model preset (default gpt2xl-moe)\n"
        "  --cluster NAME     cluster preset (default testbedA)\n"
        "  --batch N          samples per GPU (default 1)\n"
        "  --seq-len N        tokens per sample (default 1024)\n"
        "  --layers N         generalized layers; 0 = preset default\n"
        "  --experts N        experts; 0 = one per node\n"
        "  --rmax N           max pipeline degree (default 16)\n"
        "  --threads N        engine worker threads; 0 = hardware\n"
        "  --advisor-cache F  load cached answers from F before the\n"
        "                     query and save all answers back after\n"
        "  --out-json F       write the answer JSON to F\n"
        "  --quiet            suppress the frontier table\n"
        "  --help             this text\n",
        argv0);
}

bool
parseI64(const char *text, int64_t *out)
{
    char *end = nullptr;
    *out = std::strtoll(text, &end, 10);
    return end != text && *end == '\0';
}

bool
parseI32(const char *text, int *out)
{
    int64_t v;
    if (!parseI64(text, &v) || v < -2147483647 - 1 || v > 2147483647)
        return false;
    *out = static_cast<int>(v);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    runtime::TuneQuery query;
    query.model = "gpt2xl-moe";
    query.cluster = "testbedA";
    runtime::TuneOptions options;
    std::string cache_path;
    std::string out_json;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const auto isFlag = [&](const char *name) {
            return std::strcmp(argv[i], name) == 0;
        };
        const auto flagValue = [&](const char *name) -> const char * {
            return isFlag(name) && i + 1 < argc ? argv[++i] : nullptr;
        };
        bool ok = true;
        if (isFlag("--help") || isFlag("-h")) {
            usage(argv[0]);
            return 0;
        } else if (const char *v = flagValue("--model")) {
            query.model = v;
        } else if (const char *v = flagValue("--cluster")) {
            query.cluster = v;
        } else if (const char *v = flagValue("--batch")) {
            ok = parseI64(v, &query.batch) && query.batch > 0;
        } else if (const char *v = flagValue("--seq-len")) {
            ok = parseI64(v, &query.seqLen) && query.seqLen > 0;
        } else if (const char *v = flagValue("--layers")) {
            ok = parseI32(v, &query.numLayers) && query.numLayers >= 0;
        } else if (const char *v = flagValue("--experts")) {
            ok = parseI32(v, &query.numExperts) && query.numExperts >= 0;
        } else if (const char *v = flagValue("--rmax")) {
            ok = parseI32(v, &query.rMax) && query.rMax >= 1;
        } else if (const char *v = flagValue("--threads")) {
            ok = parseI32(v, &options.numThreads) &&
                 options.numThreads >= 0;
        } else if (const char *v = flagValue("--advisor-cache")) {
            cache_path = v;
        } else if (const char *v = flagValue("--out-json")) {
            out_json = v;
        } else if (isFlag("--quiet")) {
            quiet = true;
        } else {
            std::fprintf(stderr, "unknown or incomplete option '%s'\n",
                         argv[i]);
            usage(argv[0]);
            return 2;
        }
        if (!ok) {
            std::fprintf(stderr, "bad value for '%s'\n", argv[i - 1]);
            return 2;
        }
    }

    // Refuse unwritable destinations before searching: discovering a
    // bad --out-json path only after the search silently loses the
    // answer.
    for (const std::string *out_path : {&out_json, &cache_path}) {
        std::string werr;
        if (!out_path->empty() &&
            !fileio::checkWritable(*out_path, &werr)) {
            std::fprintf(stderr, "fsmoe_tune: %s\n", werr.c_str());
            return 2;
        }
    }

    runtime::Tuner tuner(options);
    if (!cache_path.empty()) {
        std::string error;
        if (!tuner.loadCache(cache_path, &error))
            // A missing cache is the normal cold start; report and go.
            std::fprintf(stderr, "advisor cache not loaded: %s\n",
                         error.c_str());
    }

    const runtime::TuneAnswer answer = tuner.tune(query);

    std::printf("query    %s\n", answer.queryKey.c_str());
    std::printf("answer   %s  (%s)\n", answer.best.c_str(),
                answer.fromCache ? "cached" : "searched");
    std::printf("makespan %s ms over %zu evaluated specs\n",
                json::fmtDouble(answer.bestMakespanMs).c_str(),
                answer.evaluated);
    if (!quiet) {
        std::printf("\n%-32s %14s %14s %12s\n", "pareto frontier",
                    "makespan ms", "comm busy ms", "peak MB");
        for (const runtime::TuneCandidate &c : answer.frontier)
            std::printf("%-32s %14s %14s %12s\n", c.spec.c_str(),
                        json::fmtDouble(c.makespanMs).c_str(),
                        json::fmtDouble(c.commBusyMs).c_str(),
                        json::fmtDouble(c.peakMemMB).c_str());
    }

    if (!out_json.empty()) {
        std::string error;
        if (!fileio::atomicWriteFile(
                out_json, runtime::Tuner::answerJson(answer), &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 1;
        }
    }
    if (!cache_path.empty()) {
        std::string error;
        if (!tuner.saveCache(cache_path, &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 1;
        }
    }
    return 0;
}
