/**
 * @file
 * Debug-mode runtime audits: deep invariant checks that are on by
 * default in Debug builds and compiled out of Release builds.
 *
 * The dynamic complement of the static tooling (fsmoe_lint, the
 * sanitizer matrix — see docs/CORRECTNESS.md): where FSMOE_ASSERT
 * guards cheap local conditions in every build type, an *audit* is an
 * O(n)-ish structural validation that would be too expensive on the
 * Release hot path — full TaskGraph CSR/acyclicity verification after
 * every build, simulator ready-set invariants on every pop,
 * cache-key collision detection (same key, different payload) across
 * the sim/solver/advisor caches.
 *
 * Gating is two-level:
 *   - compile time: FSMOE_AUDIT_ENABLED is 1 in Debug (!NDEBUG) and 0
 *     in Release, overridable either way with the CMake option
 *     -DFSMOE_AUDIT=ON|OFF (which defines FSMOE_FORCE_AUDIT=1|0).
 *     When 0, FSMOE_AUDIT(...) compiles to nothing — Release
 *     benchmark numbers are untouched by this layer.
 *   - run time: audit::enabled() (default on when compiled in) lets a
 *     process opt out, e.g. to time a Debug build.
 *
 * Every executed check bumps a counter in the base/stats registry
 * ("audit.*"), so a test can prove audits were live instead of
 * silently compiled out. An audit failure is a bug by definition and
 * panics (aborts) — audits never degrade to warnings.
 *
 * Thread-safety: all functions here may be called concurrently; the
 * collision table is internally synchronised, counters are atomics.
 */
#ifndef FSMOE_BASE_AUDIT_H
#define FSMOE_BASE_AUDIT_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#if defined(FSMOE_FORCE_AUDIT)
#define FSMOE_AUDIT_ENABLED FSMOE_FORCE_AUDIT
#elif !defined(NDEBUG)
#define FSMOE_AUDIT_ENABLED 1
#else
#define FSMOE_AUDIT_ENABLED 0
#endif

/**
 * Execute @p stmt only when audits are compiled in *and* runtime
 * enabled. Usage: FSMOE_AUDIT(auditTaskGraph(graph));
 */
#if FSMOE_AUDIT_ENABLED
#define FSMOE_AUDIT(stmt) \
    do { \
        if (::fsmoe::audit::enabled()) { \
            stmt; \
        } \
    } while (0)
#else
#define FSMOE_AUDIT(stmt) \
    do { \
    } while (0)
#endif

namespace fsmoe::audit {

/** True when FSMOE_AUDIT bodies exist in this binary at all. */
constexpr bool
compiledIn()
{
    return FSMOE_AUDIT_ENABLED != 0;
}

/** Runtime switch (meaningful only when compiledIn()). Default on. */
bool enabled();
void setEnabled(bool on);

/**
 * Order-sensitive 64-bit FNV-1a content fingerprint, used to compare
 * cache payloads cheaply. Not cryptographic — it detects the
 * determinism bugs audits hunt (two byte-different payloads under one
 * key), not adversaries. Doubles are mixed by bit pattern, so two
 * payloads fingerprint equal iff they are bit-identical field by
 * field, matching the repo's byte-identity contract.
 */
class Fingerprint
{
  public:
    Fingerprint &mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
        return *this;
    }
    Fingerprint &mix(int64_t v) { return mix(static_cast<uint64_t>(v)); }
    Fingerprint &mix(int v) { return mix(static_cast<uint64_t>(
        static_cast<int64_t>(v))); }
    Fingerprint &mix(bool v) { return mix(static_cast<uint64_t>(v)); }
    Fingerprint &mix(double v)
    {
        uint64_t bits;
        static_assert(sizeof bits == sizeof v);
        std::memcpy(&bits, &v, sizeof bits);
        return mix(bits);
    }
    /** Length-prefixed, so ("ab","c") and ("a","bc") differ. */
    Fingerprint &mix(const std::string &s)
    {
        return mix(static_cast<uint64_t>(s.size())).mixBytes(s);
    }
    /** The bytes alone, with no length prefix: plain FNV-1a. */
    Fingerprint &mixBytes(std::string_view bytes)
    {
        for (char c : bytes) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= 0x100000001b3ull;
        }
        return *this;
    }

    uint64_t digest() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull; // FNV-1a offset basis.
};

/** @p digest as the 16 lowercase hex digits persisted files store. */
std::string hex16(uint64_t digest);

/**
 * Cache-key collision detector. Call at every point a cache *payload*
 * is produced for a key (cold computes, recomputes after a clear,
 * racing duplicate computes): the first call records the payload
 * fingerprint for (domain, key), later calls verify it. A mismatch
 * means the key under-identifies its inputs — two different payloads
 * share one cache slot — which silently breaks the byte-identity
 * contract whenever the "wrong" entry is served; that is a panic.
 *
 * The table is process-wide and bounded (oldest-insertion entries are
 * evicted past a fixed cap); domains in use: "sweep.cost",
 * "solver.pipeline", "solver.partition", "tuner.answer".
 *
 * Counts into audit.cacheKey.checks / audit.cacheKey.recorded.
 */
void checkCacheKey(const char *domain, const std::string &key,
                   uint64_t payload_fingerprint);

/** Entries currently held by the collision table (for tests). */
size_t cacheKeyTableSize();

/** Drop every recorded (domain, key) fingerprint. */
void clearCacheKeyTable();

/**
 * Names of the registry counters audits bump; the demo-grid baseline
 * test asserts each is live after a real sweep.
 *
 *   audit.taskGraph.verified   graphs structurally validated
 *   audit.heap.popChecks       simulator candidate pops validated
 *   audit.cacheKey.checks      payload fingerprints checked
 *   audit.cacheKey.recorded    first-seen keys recorded
 */

} // namespace fsmoe::audit

#endif // FSMOE_BASE_AUDIT_H
