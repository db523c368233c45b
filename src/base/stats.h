/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and
 * fixed-bucket histograms, in the spirit of gem5's stats package.
 *
 * Every subsystem that wants to be observable registers metrics under
 * hierarchical dotted names ("sweep.costCache.hits",
 * "sweep.graphBuild.ms") and updates them on its hot path; a consumer —
 * `fsmoe_sweep --metrics-json`, the richer `--profile`, CI — takes one
 * JSON snapshot at the end. Registration is a locked map lookup, but
 * call sites cache the returned reference (metrics are never
 * destroyed or moved), so steady-state updates are a single relaxed
 * atomic operation.
 *
 * Thread-safety: every method on every class here may be called
 * concurrently. Counter::inc, Gauge updates, and Histogram::observe
 * are lock-free atomics; concurrent increments never lose updates
 * (stats_test asserts exact sums under contention). snapshotJson()
 * reads the atomics individually — it is a coherent-per-metric, not
 * globally consistent, cut, which is what a monitoring snapshot
 * needs.
 *
 * Determinism: snapshotJson() iterates metrics in lexicographic name
 * order and formats doubles with 17 significant digits, so two
 * processes that performed the same updates emit byte-identical
 * snapshots. Wall-clock-derived values (timer histograms) naturally
 * differ run to run; counts do not.
 *
 * Lifetime: metrics live until process exit. reset() zeroes every
 * value but never removes a registration, so cached references stay
 * valid forever.
 */
#ifndef FSMOE_BASE_STATS_H
#define FSMOE_BASE_STATS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fsmoe::stats {

/** Monotonic event count. */
class Counter
{
  public:
    void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    uint64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
};

/**
 * A point-in-time double value with a recorded high-water mark
 * (e.g. current queue depth / deepest queue ever seen, or an
 * accumulated quantity like per-link busy milliseconds).
 */
class Gauge
{
  public:
    void set(double v);
    void add(double delta);
    /** Raise the high-water mark without changing the value. */
    void updateMax(double v);
    double value() const { return v_.load(std::memory_order_relaxed); }
    double maxValue() const { return max_.load(std::memory_order_relaxed); }
    void reset();

  private:
    std::atomic<double> v_{0.0};
    std::atomic<double> max_{0.0};
};

/**
 * Fixed-bucket histogram: cumulative-style upper bounds fixed at
 * registration (strictly increasing), plus an implicit +inf overflow
 * bucket, with count/sum/min/max running aggregates. A value v lands
 * in the first bucket with v <= bound.
 */
class Histogram
{
  public:
    /** @p bounds must be non-empty and strictly increasing. */
    explicit Histogram(std::vector<double> bounds);

    void observe(double v);

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    double sum() const { return sum_.load(std::memory_order_relaxed); }
    /** Smallest observed value; 0 when count() == 0. */
    double minValue() const;
    /** Largest observed value; 0 when count() == 0. */
    double maxValue() const;
    double mean() const;

    const std::vector<double> &bounds() const { return bounds_; }
    /** Count in bucket @p i; i == bounds().size() is the overflow. */
    uint64_t bucketCount(size_t i) const;

    void reset();

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<uint64_t>> buckets_; ///< bounds + overflow.
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
};

/**
 * Default latency buckets in milliseconds (10us .. 10s, roughly
 * 1-3-10 per decade) — what every timer histogram in the tree uses
 * unless it has a reason not to.
 */
const std::vector<double> &defaultTimeBucketsMs();

/**
 * The name-indexed metric store. Use the process-wide instance();
 * separate Registry objects exist only so tests can run in
 * isolation.
 */
class Registry
{
  public:
    /** The process-wide registry. */
    static Registry &instance();

    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /**
     * Find-or-create the metric named @p name. Names are dotted
     * hierarchical paths; registering one name as two different
     * metric kinds is a bug (panics). References stay valid for the
     * registry's lifetime — cache them on hot paths.
     */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /// @p bounds applies on first registration only (later callers
    /// get the existing histogram; mismatched bounds panic).
    Histogram &histogram(const std::string &name,
                         const std::vector<double> &bounds =
                             defaultTimeBucketsMs());

    /**
     * Deterministic JSON document of every registered metric:
     * {"schema":"fsmoe-stats","version":1,
     *  "counters":{name:value,...},
     *  "gauges":{name:{"value":v,"max":m},...},
     *  "histograms":{name:{"count":n,"sum":s,"min":m,"max":M,
     *                      "buckets":[{"le":b,"count":c},...,
     *                                 {"le":"inf","count":c}]},...}}
     * Names are sorted; see docs/OBSERVABILITY.md for the schema.
     */
    std::string snapshotJson() const;

    /** Zero every value; registrations (and references) survive. */
    void reset();

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/** Shorthands for Registry::instance() lookups. */
Counter &counter(const std::string &name);
Gauge &gauge(const std::string &name);
Histogram &histogram(const std::string &name,
                     const std::vector<double> &bounds =
                         defaultTimeBucketsMs());

} // namespace fsmoe::stats

#endif // FSMOE_BASE_STATS_H
