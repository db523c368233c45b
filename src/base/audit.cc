#include "base/audit.h"

#include <atomic>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "base/logging.h"
#include "base/stats.h"

namespace fsmoe::audit {

namespace {

std::atomic<bool> g_enabled{true};

/// Cap on remembered (domain, key) fingerprints; past it the oldest
/// insertions are evicted FIFO. Collisions between an evicted key and
/// a later payload go unnoticed, which is acceptable: the table is a
/// debug net, not a correctness dependency, and ordinary Debug runs
/// (demo grid, tests) stay far below the cap.
constexpr size_t kMaxEntries = 1 << 20;

struct KeyTable
{
    std::mutex mu;
    std::unordered_map<std::string, uint64_t> map;
    std::deque<std::string> order; ///< Insertion order, for eviction.

    static KeyTable &instance()
    {
        static KeyTable t;
        return t;
    }
};

struct AuditStats
{
    stats::Counter &keyChecks = stats::counter("audit.cacheKey.checks");
    stats::Counter &keyRecorded = stats::counter("audit.cacheKey.recorded");

    static AuditStats &instance()
    {
        static AuditStats s;
        return s;
    }
};

} // namespace

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

void
checkCacheKey(const char *domain, const std::string &key,
              uint64_t payload_fingerprint)
{
    std::string full(domain);
    full.push_back('\0');
    full.append(key);

    AuditStats &as = AuditStats::instance();
    KeyTable &t = KeyTable::instance();
    std::lock_guard<std::mutex> lock(t.mu);
    as.keyChecks.inc();
    auto it = t.map.find(full);
    if (it == t.map.end()) {
        if (t.map.size() >= kMaxEntries) {
            t.map.erase(t.order.front());
            t.order.pop_front();
        }
        t.map.emplace(full, payload_fingerprint);
        t.order.push_back(std::move(full));
        as.keyRecorded.inc();
        return;
    }
    if (it->second != payload_fingerprint) {
        FSMOE_PANIC("cache-key collision in domain '", domain,
                    "': payload fingerprint ", payload_fingerprint,
                    " != previously recorded ", it->second,
                    " for key \"", key,
                    "\" — the key under-identifies the cached inputs");
    }
}

size_t
cacheKeyTableSize()
{
    KeyTable &t = KeyTable::instance();
    std::lock_guard<std::mutex> lock(t.mu);
    return t.map.size();
}

void
clearCacheKeyTable()
{
    KeyTable &t = KeyTable::instance();
    std::lock_guard<std::mutex> lock(t.mu);
    t.map.clear();
    t.order.clear();
}

} // namespace fsmoe::audit
