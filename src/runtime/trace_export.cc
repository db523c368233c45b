#include "runtime/trace_export.h"

#include <sstream>

#include "base/fileio.h"
#include "base/json.h"
#include "base/logging.h"
#include "core/schedules/schedule.h"
#include "sim/trace.h"

namespace fsmoe::runtime {

std::string
chromeTraceJson(const sim::TaskGraph &graph, const sim::SimResult &result,
                const std::string &process_name)
{
    const std::vector<sim::TraceEvent> events =
        sim::traceEvents(graph, result);

    std::ostringstream oss;
    oss.setf(std::ios::fixed);
    oss.precision(3); // microsecond timestamps to nanosecond precision
    oss << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

    oss << "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
           "\"args\":{\"name\":\""
        << json::escape(process_name) << "\"}}";
    for (int s = 0; s < graph.numStreams(); ++s) {
        const char *label = core::detail::streamName(s);
        std::string name = label != nullptr
                               ? std::string(label)
                               : "stream-" + std::to_string(s);
        oss << ",{\"ph\":\"M\",\"pid\":0,\"tid\":" << s
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << name
            << "\"}}";
    }

    for (const sim::TraceEvent &ev : events) {
        oss << ",{\"ph\":\"X\",\"pid\":0,\"tid\":" << ev.stream
            << ",\"name\":\"" << json::escape(ev.name) << "\",\"cat\":\""
            << sim::opTypeName(ev.op) << "\",\"ts\":" << ev.startMs * 1000.0
            << ",\"dur\":" << ev.durationMs * 1000.0
            << ",\"args\":{\"task\":" << ev.id << ",\"link\":\""
            << sim::linkName(ev.link) << "\"}}";
    }
    oss << "]}";
    return oss.str();
}

bool
writeChromeTrace(const std::string &path, const sim::TaskGraph &graph,
                 const sim::SimResult &result,
                 const std::string &process_name)
{
    const std::string json = chromeTraceJson(graph, result, process_name);
    std::string error;
    if (!fileio::atomicWriteFile(path, json, &error)) {
        FSMOE_WARN("trace export: ", error);
        return false;
    }
    return true;
}

} // namespace fsmoe::runtime
