// Fixture: near-miss patterns that must produce zero findings. Each
// block sits just on the safe side of a rule.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

namespace {

// Guarded by g_mu below; only the registry mutates it.
std::vector<std::string> g_documented;

std::mutex g_mu;              // exempt type: synchronization primitive
std::atomic<int> g_hits{0};   // exempt type: atomic
constexpr int kLimit = 8;     // exempt: constexpr
const char *const kName = ""; // exempt: const

} // namespace

// Unordered iteration with a sorting sink: collect then sort.
std::vector<std::string>
sortedKeys(const std::unordered_map<std::string, int> &m)
{
    std::vector<std::string> keys;
    for (const auto &kv : m)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    return keys;
}

// Unordered iteration draining into an ordered container.
std::map<std::string, int>
reorder(const std::unordered_map<std::string, int> &m)
{
    std::map<std::string, int> out;
    for (const auto &kv : m)
        out.insert(kv);
    return out;
}

// Meyer singleton: C++11 guarantees thread-safe initialization.
std::vector<int> &
pool()
{
    static std::vector<int> instance;
    return instance;
}

// Seeded engine: reproducible, not a banned source.
int
draw()
{
    std::mt19937_64 rng(12345);
    return static_cast<int>(rng() & 0x7fffffff);
}

// steady_clock durations are allowed (telemetry timing, not results).
double
elapsedMs(std::chrono::steady_clock::time_point t0)
{
    auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double, std::milli>(dt).count();
}

// Deadlines on the monotonic clock: exactly what wallclock-deadline
// demands — deadline/timeout keywords near steady_clock are fine.
bool
deadlinePassed(std::chrono::steady_clock::time_point deadline)
{
    return std::chrono::steady_clock::now() >= deadline;
}

// Iterating a plain vector accumulates in declaration order: fine.
double
vectorSum(const std::vector<double> &xs)
{
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum;
}

// Names that merely contain a conversion's spelling are not calls to
// it: restore(), a member .stop(), mystrtol().
struct Store
{
    void restore() {}
    void stop() {}
};
long mystrtol(const char *s) { return s != nullptr ? 1 : 0; }

void
nearMissNumbers(Store &s)
{
    s.restore();
    s.stop();
    (void)mystrtol("12"); // the comment may say std::strtol( freely
}
