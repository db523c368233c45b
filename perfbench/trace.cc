#include "trace.h"

#include <cstdio>

#include "base/fileio.h"
#include "base/json.h"

namespace fsmoe::bench {

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
Tracer::begin(const std::string &name, int64_t op, bool layer)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.rep = rep_;
    s.op = op;
    s.layer = layer;
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    // Read the clock last, so the bookkeeping above is charged to the
    // parent rather than to this span.
    spans_[id].startNs = nowNs();
    return id;
}

void
Tracer::end(int id)
{
    spans_[id].endNs = nowNs();
    open_.pop_back();
}

std::vector<double>
Tracer::selfMs() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].durMs();
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[s.parent] -= s.durMs();
    return self;
}

std::vector<RepSummary>
Tracer::summarize() const
{
    std::vector<RepSummary> reps;
    const std::vector<double> self = selfMs();
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.rep >= static_cast<int>(reps.size()))
            reps.resize(s.rep + 1);
        RepSummary &r = reps[s.rep];
        if (s.parent < 0)
            r.wallMs += s.durMs();
        if (!s.layer)
            continue;
        LayerTotals &t = r.layers[s.name];
        t.calls += 1;
        t.work += s.work;
        t.selfMs += self[i];
        t.inclMs += s.durMs();
        r.stageMs += self[i];
    }
    return reps;
}

RepSummary
Tracer::fastestRep() const
{
    RepSummary best;
    for (const RepSummary &r : summarize())
        if (best.wallMs == 0.0 || r.wallMs < best.wallMs)
            best = r;
    return best;
}

bool
Tracer::writeChromeTrace(const std::string &path, const std::string &process,
                         std::string *error) const
{
    std::string out = "{\"traceEvents\":[\n";
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
           "\"args\":{\"name\":\"" +
           json::escape(process) + "\"}}";
    char buf[160];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                      "\"dur\":%.3f,",
                      s.rep + 1, static_cast<double>(s.startNs) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3);
        out += buf;
        out += "\"name\":\"" + json::escape(s.name) + "\",";
        std::snprintf(buf, sizeof buf,
                      "\"args\":{\"span\":%zu,\"parent\":%d,\"op\":%lld,"
                      "\"work\":%lld}}",
                      i, s.parent, static_cast<long long>(s.op),
                      static_cast<long long>(s.work));
        out += buf;
    }
    out += "\n]}\n";
    return fileio::atomicWriteFile(path, out, error);
}

} // namespace fsmoe::bench
