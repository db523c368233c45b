#include "runtime/self_trace.h"

#include <sstream>

#include "base/fileio.h"
#include "base/json.h"
#include "base/logging.h"

namespace fsmoe::runtime {

SelfTrace &
SelfTrace::instance()
{
    static SelfTrace trace;
    return trace;
}

void
SelfTrace::enable()
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
    epoch_ = std::chrono::steady_clock::now();
    enabled_.store(true, std::memory_order_relaxed);
}

void
SelfTrace::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

double
SelfTrace::nowUs() const
{
    if (epoch_ == std::chrono::steady_clock::time_point{})
        return 0.0;
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
SelfTrace::record(std::string name, const char *cat, double ts_us,
                  double dur_us)
{
    // Threads are numbered in first-record order, for the process
    // lifetime — one timeline row per OS thread in the exported trace.
    static thread_local int t_tid = -1;
    std::lock_guard<std::mutex> lock(mu_);
    if (t_tid < 0)
        t_tid = next_tid_++;
    events_.push_back({std::move(name), cat, t_tid, ts_us, dur_us});
}

size_t
SelfTrace::eventCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

std::string
SelfTrace::chromeTraceJson(const std::string &process_name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream oss;
    oss.setf(std::ios::fixed);
    oss.precision(3);
    oss << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    oss << "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
           "\"args\":{\"name\":\""
        << json::escape(process_name) << "\"}}";
    for (int tid = 0; tid < next_tid_; ++tid) {
        oss << ",{\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\"worker-"
            << tid << "\"}}";
    }
    for (const Event &ev : events_) {
        oss << ",{\"ph\":\"X\",\"pid\":0,\"tid\":" << ev.tid
            << ",\"name\":\"" << json::escape(ev.name) << "\",\"cat\":\""
            << ev.cat << "\",\"ts\":" << ev.tsUs << ",\"dur\":" << ev.durUs
            << "}";
    }
    oss << "]}";
    return oss.str();
}

bool
SelfTrace::write(const std::string &path,
                 const std::string &process_name) const
{
    const std::string json = chromeTraceJson(process_name);
    std::string error;
    if (!fileio::atomicWriteFile(path, json, &error)) {
        FSMOE_WARN("self-trace: ", error);
        return false;
    }
    return true;
}

SelfSpan::SelfSpan(std::string name, const char *cat)
    : name_(std::move(name)), cat_(cat)
{
    SelfTrace &trace = SelfTrace::instance();
    if (trace.enabled())
        start_us_ = trace.nowUs();
}

SelfSpan::~SelfSpan()
{
    if (start_us_ < 0.0)
        return;
    SelfTrace &trace = SelfTrace::instance();
    if (!trace.enabled())
        return; // disabled mid-span; drop it
    trace.record(std::move(name_), cat_, start_us_,
                 trace.nowUs() - start_us_);
}

} // namespace fsmoe::runtime
