/**
 * @file
 * bench_compare — compare two sets of bench_fsmoe result files.
 *
 *   bench_compare [--benchmark BENCHMARK.json] BASE.json... -- HEAD.json...
 *   bench_compare --selftest
 *
 * Each file is one `bench_fsmoe --out` run of one workload; a set may
 * mix workloads and seeds. For every (workload, metric) present in both
 * sets it prints each set's median and quartiles across runs (Python's
 * statistics.quantiles(values, n=4)), and for the end-to-end metrics a
 * verdict from their BENCHMARK.json direction and bound:
 *
 *   unresolved  either set's quartile spread, as a share of its median,
 *               is wider than the bound — unless every head run is
 *               better than every base run, which is an improvement
 *   regressed   the head median is worse by more than the bound
 *   improved    the head median is better by more than the base
 *               quartile spread and head beats base in >= 90% of pairs
 *   within      anything else
 *
 * It warns when the sets' host.probe_ms medians differ by more than
 * 10%: a slow host phase, not a commit, may explain the difference.
 * Exits 1 when any metric regressed or an input is unreadable.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/fileio.h"
#include "base/json.h"

namespace {

using namespace fsmoe;

struct Quartiles
{
    double q1 = 0.0, median = 0.0, q3 = 0.0;

    /** Quartile distance as a share of the median. */
    double spread() const
    {
        return median != 0.0 ? (q3 - q1) / std::fabs(median) : 0.0;
    }
};

/** statistics.quantiles(v, n=4) (method "exclusive") and the median. */
Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    q.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
    if (n < 2) {
        q.q1 = q.q3 = v[0];
        return q;
    }
    const long m = static_cast<long>(n) + 1;
    double out[3];
    for (long i = 1; i <= 3; ++i) {
        long j = std::clamp(i * m / 4, 1L, static_cast<long>(n) - 1);
        const long delta = i * m - j * 4;
        out[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4.0;
    }
    q.q1 = out[0];
    q.q3 = out[2];
    return q;
}

struct Bound
{
    bool higherBetter = false;
    double bound = 0.0;
};

/** The verdict for one end-to-end metric (see the file comment). */
std::string
verdict(const std::vector<double> &base, const std::vector<double> &head,
        const Bound &b)
{
    const Quartiles qb = quartiles(base);
    const Quartiles qh = quartiles(head);
    const auto better = [&](double h, double x) {
        return b.higherBetter ? h > x : h < x;
    };
    size_t wins = 0;
    bool all_better = true;
    for (double h : head)
        for (double x : base) {
            wins += better(h, x) ? 1 : 0;
            all_better = all_better && better(h, x);
        }
    if (qb.spread() > b.bound || qh.spread() > b.bound)
        return all_better ? "improved" : "unresolved";
    double worse = (qh.median - qb.median) / std::fabs(qb.median);
    if (b.higherBetter)
        worse = -worse;
    if (worse > b.bound)
        return "regressed";
    const size_t pairs = head.size() * base.size();
    if (worse < 0.0 && -worse * std::fabs(qb.median) > qb.q3 - qb.q1 &&
        wins * 10 >= pairs * 9)
        return "improved";
    return "within";
}

/** True when the two host-probe medians differ by more than 10%. */
bool
probeDiffers(const std::vector<double> &base, const std::vector<double> &head)
{
    const double a = quartiles(base).median;
    const double b = quartiles(head).median;
    return a > 0.0 && std::fabs(b - a) / a > 0.10;
}

// --------------------------------------------------------------- inputs

using Key = std::pair<std::string, std::string>; ///< (workload, metric)

struct Set
{
    std::map<Key, std::vector<double>> values;
    std::map<Key, std::string> units;
    std::vector<double> probeMs;
};

bool
readResult(const std::string &path, Set *set)
{
    std::string text, error;
    json::Value doc;
    if (!fileio::readTextFile(path, &text, &error) ||
        !json::parse(text, &doc, &error)) {
        std::fprintf(stderr, "bench_compare: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    std::string workload;
    const json::Value *metrics = doc.find("all_metrics");
    const json::Value *host = doc.find("host");
    if (!json::asString(doc.find("workload"), &workload) ||
        metrics == nullptr || host == nullptr) {
        std::fprintf(stderr, "bench_compare: %s: not a bench_fsmoe result\n",
                     path.c_str());
        return false;
    }
    for (const auto &[name, m] : metrics->object) {
        double v = 0.0;
        std::string unit;
        if (!json::asNumber(m.find("value"), &v) ||
            !json::asString(m.find("unit"), &unit))
            continue;
        set->values[{workload, name}].push_back(v);
        set->units[{workload, name}] = unit;
    }
    double before = 0.0, after = 0.0;
    if (json::asNumber(host->find("probe_ms_before"), &before) &&
        json::asNumber(host->find("probe_ms_after"), &after))
        set->probeMs.push_back(std::min(before, after));
    return true;
}

bool
readBounds(const std::string &path, std::map<std::string, Bound> *bounds)
{
    std::string text, error;
    json::Value doc;
    if (!fileio::readTextFile(path, &text, &error) ||
        !json::parse(text, &doc, &error)) {
        std::fprintf(stderr, "bench_compare: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    const json::Value *e2e = doc.find("end_to_end");
    if (e2e == nullptr)
        return false;
    for (const json::Value &m : e2e->array) {
        std::string name, better;
        Bound b;
        if (json::asString(m.find("name"), &name) &&
            json::asString(m.find("better"), &better) &&
            json::asNumber(m.find("bound"), &b.bound)) {
            b.higherBetter = better == "higher";
            (*bounds)[name] = b;
        }
    }
    return true;
}

int
compare(const std::map<std::string, Bound> &bounds, const Set &base,
        const Set &head)
{
    int regressed = 0;
    std::printf("%-12s %-36s %14s %14s %8s %8s  %s\n", "workload", "metric",
                "base median", "head median", "change", "spread", "verdict");
    for (const auto &[key, hv] : head.values) {
        const auto bit = base.values.find(key);
        if (bit == base.values.end())
            continue;
        const Quartiles qb = quartiles(bit->second);
        const Quartiles qh = quartiles(hv);
        const auto bound = bounds.find(key.second);
        std::string v = "-";
        if (bound != bounds.end()) {
            v = verdict(bit->second, hv, bound->second);
            regressed += v == "regressed" ? 1 : 0;
        }
        const double change =
            qb.median != 0.0 ? (qh.median - qb.median) / qb.median : 0.0;
        std::printf("%-12s %-36s %14.6g %14.6g %+7.1f%% %7.1f%%  %s\n",
                    key.first.c_str(), key.second.c_str(), qb.median,
                    qh.median, 100.0 * change,
                    100.0 * std::max(qb.spread(), qh.spread()), v.c_str());
        std::printf("%-12s %-36s [%.6g, %.6g] [%.6g, %.6g] %s, n=%zu/%zu\n",
                    "", "  quartiles", qb.q1, qb.q3, qh.q1, qh.q3,
                    head.units.at(key).c_str(), bit->second.size(),
                    hv.size());
    }
    std::printf("host.probe_ms median: base %.4g, head %.4g\n",
                quartiles(base.probeMs).median,
                quartiles(head.probeMs).median);
    if (probeDiffers(base.probeMs, head.probeMs))
        std::printf("WARNING: host.probe_ms differs by more than 10%% "
                    "between the sets; the host, not the code, may explain "
                    "the difference\n");
    return regressed > 0 ? 1 : 0;
}

// ------------------------------------------------------------- selftest

int
selftest()
{
    int bad = 0;
    const auto expect = [&](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr, "selftest FAILED: %s\n", what);
            ++bad;
        }
    };
    // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
    expect(q.q1 == 2.75 && q.median == 5.5 && q.q3 == 8.25,
           "quartiles match Python's statistics.quantiles");

    const Bound lower{false, 0.10};
    const Bound higher{true, 0.10};
    const std::vector<double> base = {100, 101, 99, 100.5, 99.5};
    const std::vector<double> noisy = {100, 60, 140, 80, 120};
    expect(verdict(base, {102, 101, 103, 102.5, 101.5}, lower) == "within",
           "a 2% slowdown is within a 10% bound");
    expect(verdict(base, {120, 121, 119, 120.5, 119.5}, lower) == "regressed",
           "a 20% slowdown regresses");
    expect(verdict(base, {80, 81, 79, 80.5, 79.5}, lower) == "improved",
           "a 20% speed-up improves");
    expect(verdict(base, {80, 81, 79, 80.5, 79.5}, higher) == "regressed",
           "direction follows 'better'");
    expect(verdict(noisy, {100, 101, 99, 100.5, 99.5}, lower) == "unresolved",
           "a spread wider than the bound is unresolved");
    expect(verdict(noisy, {50, 51, 49, 50.5, 49.5}, lower) == "improved",
           "unless every head run beats every base run");
    expect(verdict(base, {99, 100, 98, 99.5, 98.5}, lower) == "within",
           "a 1% gain inside the base spread is not an improvement");
    expect(probeDiffers({5.0, 5.1}, {6.0, 6.1}), "a 20% probe change warns");
    expect(!probeDiffers({5.0, 5.1}, {5.2, 5.1}), "a 2% probe change is quiet");
    if (bad == 0)
        std::printf("bench_compare selftest: ok\n");
    return bad == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string benchmark = "BENCHMARK.json";
    std::vector<std::string> files[2];
    int side = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--selftest")
            return selftest();
        if (a == "--benchmark" && i + 1 < argc)
            benchmark = argv[++i];
        else if (a == "--")
            side = 1;
        else
            files[side].push_back(a);
    }
    if (files[0].empty() || files[1].empty()) {
        std::fprintf(stderr,
                     "usage: %s [--benchmark BENCHMARK.json] BASE.json... -- "
                     "HEAD.json...\n       %s --selftest\n",
                     argv[0], argv[0]);
        return 2;
    }
    std::map<std::string, Bound> bounds;
    if (!readBounds(benchmark, &bounds))
        return 1;
    Set sets[2];
    for (int s = 0; s < 2; ++s)
        for (const std::string &f : files[s])
            if (!readResult(f, &sets[s]))
                return 1;
    return compare(bounds, sets[0], sets[1]);
}
