#include "base/stats.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "base/json.h"
#include "base/logging.h"

namespace fsmoe::stats {

namespace {

/** fetch_add for atomic<double> (no native RMW before C++20). */
void
atomicAdd(std::atomic<double> &a, double delta)
{
    double cur = a.load(std::memory_order_relaxed);
    while (!a.compare_exchange_weak(cur, cur + delta,
                                    std::memory_order_relaxed)) {
    }
}

void
atomicMax(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (cur < v &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

void
atomicMin(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (cur > v &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

} // namespace

// -------------------------------------------------------------- Gauge

void
Gauge::set(double v)
{
    v_.store(v, std::memory_order_relaxed);
    atomicMax(max_, v);
}

void
Gauge::add(double delta)
{
    atomicAdd(v_, delta);
    atomicMax(max_, v_.load(std::memory_order_relaxed));
}

void
Gauge::updateMax(double v)
{
    atomicMax(max_, v);
}

void
Gauge::reset()
{
    v_.store(0.0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
}

// ---------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1)
{
    FSMOE_CHECK_ARG(!bounds_.empty(), "histogram needs at least one bucket "
                                      "bound");
    for (size_t i = 1; i < bounds_.size(); ++i)
        FSMOE_CHECK_ARG(bounds_[i - 1] < bounds_[i],
                        "histogram bucket bounds must be strictly "
                        "increasing");
    // Extrema start at the identity elements so observe() needs no
    // first-observation special case; minValue()/maxValue() report 0
    // while count() == 0.
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

void
Histogram::observe(double v)
{
    // First bound with v <= bound; past-the-end is the +inf overflow.
    const size_t i = static_cast<size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), v) -
        bounds_.begin());
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(sum_, v);
    atomicMin(min_, v);
    atomicMax(max_, v);
}

double
Histogram::minValue() const
{
    return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double
Histogram::maxValue() const
{
    return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double
Histogram::mean() const
{
    const uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

uint64_t
Histogram::bucketCount(size_t i) const
{
    FSMOE_CHECK_ARG(i < buckets_.size(), "bucket index out of range");
    return buckets_[i].load(std::memory_order_relaxed);
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

const std::vector<double> &
defaultTimeBucketsMs()
{
    static const std::vector<double> buckets = {
        0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0,
        1000.0, 3000.0, 10000.0};
    return buckets;
}

// ----------------------------------------------------------- Registry

Registry &
Registry::instance()
{
    static Registry registry;
    return registry;
}

Counter &
Registry::counter(const std::string &name)
{
    FSMOE_CHECK_ARG(!name.empty(), "metric name must not be empty");
    std::lock_guard<std::mutex> lock(mu_);
    FSMOE_ASSERT(gauges_.count(name) == 0 && histograms_.count(name) == 0,
                 "metric '", name, "' already registered as another kind");
    auto &slot = counters_[name];
    if (slot == nullptr)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    FSMOE_CHECK_ARG(!name.empty(), "metric name must not be empty");
    std::lock_guard<std::mutex> lock(mu_);
    FSMOE_ASSERT(counters_.count(name) == 0 && histograms_.count(name) == 0,
                 "metric '", name, "' already registered as another kind");
    auto &slot = gauges_[name];
    if (slot == nullptr)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name,
                    const std::vector<double> &bounds)
{
    FSMOE_CHECK_ARG(!name.empty(), "metric name must not be empty");
    std::lock_guard<std::mutex> lock(mu_);
    FSMOE_ASSERT(counters_.count(name) == 0 && gauges_.count(name) == 0,
                 "metric '", name, "' already registered as another kind");
    auto &slot = histograms_[name];
    if (slot == nullptr)
        slot = std::make_unique<Histogram>(bounds);
    else
        FSMOE_ASSERT(slot->bounds() == bounds, "histogram '", name,
                     "' re-registered with different bucket bounds");
    return *slot;
}

std::string
Registry::snapshotJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream oss;
    oss << "{\"schema\":\"fsmoe-stats\",\"version\":1,\n\"counters\":{";
    bool first = true;
    for (const auto &[name, c] : counters_) {
        oss << (first ? "\n" : ",\n") << '"' << json::escape(name)
            << "\":" << c->value();
        first = false;
    }
    oss << (first ? "" : "\n") << "},\n\"gauges\":{";
    first = true;
    for (const auto &[name, g] : gauges_) {
        oss << (first ? "\n" : ",\n") << '"' << json::escape(name)
            << "\":{\"value\":" << json::fmtDouble(g->value())
            << ",\"max\":" << json::fmtDouble(g->maxValue()) << '}';
        first = false;
    }
    oss << (first ? "" : "\n") << "},\n\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms_) {
        oss << (first ? "\n" : ",\n") << '"' << json::escape(name)
            << "\":{\"count\":" << h->count()
            << ",\"sum\":" << json::fmtDouble(h->sum())
            << ",\"min\":" << json::fmtDouble(h->minValue())
            << ",\"max\":" << json::fmtDouble(h->maxValue())
            << ",\"buckets\":[";
        for (size_t i = 0; i < h->bounds().size(); ++i) {
            oss << (i == 0 ? "" : ",") << "{\"le\":"
                << json::fmtDouble(h->bounds()[i])
                << ",\"count\":" << h->bucketCount(i) << '}';
        }
        oss << ",{\"le\":\"inf\",\"count\":"
            << h->bucketCount(h->bounds().size()) << "}]}";
        first = false;
    }
    oss << (first ? "" : "\n") << "}}\n";
    return oss.str();
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

Counter &
counter(const std::string &name)
{
    return Registry::instance().counter(name);
}

Gauge &
gauge(const std::string &name)
{
    return Registry::instance().gauge(name);
}

Histogram &
histogram(const std::string &name, const std::vector<double> &bounds)
{
    return Registry::instance().histogram(name, bounds);
}

} // namespace fsmoe::stats
