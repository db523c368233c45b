#include "runtime/fault.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "base/audit.h"
#include "base/logging.h"
#include "base/number.h"
#include "base/stats.h"

namespace fsmoe::runtime::fault {

namespace {

// Configuration state. `g_enabled` is the lock-free fast-path gate:
// configure() publishes the config under the mutex *before* setting it
// (release), and queries load it (acquire) before touching g_config.
std::mutex g_mutex;
FaultConfig g_config;      // guarded by g_mutex
std::atomic<bool> g_enabled{false};
bool g_envChecked = false; // guarded by g_mutex
std::atomic<uint64_t> g_appends{0};
std::atomic<uint64_t> g_results{0};

// FNV-1a over the decision inputs (base/audit.h's fingerprint; the
// key's bytes are mixed without a length prefix). Splitmix-style
// finalizer on top so low bits are well mixed before the [0,1)
// projection.
double
decisionUniform(uint64_t seed, Site site, const std::string &key,
                int attempt)
{
    uint64_t h = audit::Fingerprint()
                     .mix(seed)
                     .mix(static_cast<uint64_t>(site))
                     .mixBytes(key)
                     .mix(static_cast<uint64_t>(attempt))
                     .digest();
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    // Top 53 bits -> uniform double in [0, 1).
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/**
 * Count one event on @p count; true exactly when the count reaches the
 * active config's nonzero @p limit (bumping @p counterName).
 */
bool
countReaches(std::atomic<uint64_t> &count, uint64_t FaultConfig::*limit,
             const char *counterName)
{
    if (!g_enabled.load(std::memory_order_acquire))
        return false;
    uint64_t k;
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        k = g_config.*limit;
    }
    if (k == 0)
        return false;
    if (count.fetch_add(1, std::memory_order_relaxed) + 1 != k)
        return false;
    stats::counter(counterName).inc();
    return true;
}

bool
parseRate(const std::string &value, double *out)
{
    // The range test is written so that NaN fails it.
    double v = 0.0;
    if (!parseNumber(value, &v) || !(v >= 0.0 && v <= 1.0))
        return false;
    *out = v;
    return true;
}

} // namespace

const char *
siteName(Site site)
{
    switch (site) {
    case Site::EvalError:
        return "eval";
    case Site::WorkerCrash:
        return "crash";
    case Site::WorkerTimeout:
        return "timeout";
    case Site::TornJournalWrite:
        return "torn";
    case Site::TransportDrop:
        return "drop";
    case Site::TransportDisconnect:
        return "disconnect";
    default:
        return "?";
    }
}

bool
FaultConfig::anyEnabled() const
{
    if (killAfterAppends > 0 || stopAfterResults > 0)
        return true;
    for (double r : rate)
        if (r > 0.0)
            return true;
    return false;
}

bool
parseSpec(const std::string &spec, FaultConfig *out, std::string *error)
{
    FaultConfig cfg;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const size_t eq = item.find('=');
        if (eq == std::string::npos) {
            if (error != nullptr)
                *error = "fault spec item '" + item + "' has no '='";
            return false;
        }
        const std::string k = item.substr(0, eq);
        const std::string v = item.substr(eq + 1);
        uint64_t *count = k == "seed"         ? &cfg.seed
                          : k == "kill-after" ? &cfg.killAfterAppends
                          : k == "stop-after" ? &cfg.stopAfterResults
                                              : nullptr;
        if (count != nullptr) {
            if (!parseNumber(v, count)) {
                if (error != nullptr)
                    *error = "fault spec '" + k +
                             "' wants a non-negative integer, got '" + v +
                             "'";
                return false;
            }
            continue;
        }
        bool matched = false;
        for (int i = 0; i < static_cast<int>(Site::NumSites); ++i) {
            if (k == siteName(static_cast<Site>(i))) {
                if (!parseRate(v, &cfg.rate[i])) {
                    if (error != nullptr)
                        *error = "fault rate '" + k + "=" + v +
                                 "' is not in [0, 1]";
                    return false;
                }
                matched = true;
                break;
            }
        }
        if (!matched) {
            if (error != nullptr)
                *error = "unknown fault spec key '" + k +
                         "' (want seed, eval, crash, timeout, torn, "
                         "drop, disconnect, kill-after, stop-after)";
            return false;
        }
    }
    *out = cfg;
    return true;
}

void
configure(const FaultConfig &config)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    g_config = config;
    g_appends.store(0, std::memory_order_relaxed);
    g_results.store(0, std::memory_order_relaxed);
    g_envChecked = true; // explicit config wins over the env
    g_enabled.store(config.anyEnabled(), std::memory_order_release);
}

bool
configureFromEnv()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    if (!g_envChecked) {
        g_envChecked = true;
        const char *spec = std::getenv("FSMOE_FAULT");
        if (spec != nullptr && spec[0] != '\0') {
            std::string error;
            FaultConfig cfg;
            if (!parseSpec(spec, &cfg, &error))
                FSMOE_FATAL("bad FSMOE_FAULT: ", error);
            g_config = cfg;
            g_appends.store(0, std::memory_order_relaxed);
            g_results.store(0, std::memory_order_relaxed);
            g_enabled.store(cfg.anyEnabled(), std::memory_order_release);
        }
    }
    return g_enabled.load(std::memory_order_acquire);
}

void
reset()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    g_config = FaultConfig{};
    g_appends.store(0, std::memory_order_relaxed);
    g_results.store(0, std::memory_order_relaxed);
    g_envChecked = true; // do not resurrect the env config
    g_enabled.store(false, std::memory_order_release);
}

FaultConfig
config()
{
    if (!g_enabled.load(std::memory_order_acquire))
        return FaultConfig{};
    std::lock_guard<std::mutex> lock(g_mutex);
    return g_config;
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_acquire);
}

bool
shouldInject(Site site, const std::string &key, int attempt)
{
    if (!g_enabled.load(std::memory_order_acquire))
        return false;
    uint64_t seed;
    double rate;
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        seed = g_config.seed;
        rate = g_config.rate[static_cast<int>(site)];
    }
    if (rate <= 0.0)
        return false;
    if (decisionUniform(seed, site, key, attempt) >= rate)
        return false;
    stats::counter(std::string("robust.fault.injected.") + siteName(site))
        .inc();
    return true;
}

bool
shouldKillAfterAppend()
{
    return countReaches(g_appends, &FaultConfig::killAfterAppends,
                        "robust.fault.injected.killAfter");
}

bool
shouldStopAfterResult()
{
    return countReaches(g_results, &FaultConfig::stopAfterResults,
                        "robust.fault.injected.stopAfter");
}

} // namespace fsmoe::runtime::fault
