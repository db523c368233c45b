/**
 * @file
 * Outside-in span tracing for bench_fsmoe.
 *
 * The benchmark times its own calls into each library layer (a
 * Schedule::build, a Simulator::run, a cached solver call, ...). Spans
 * stay in memory while the traced reps run and are summarised, or
 * written as Chrome-trace JSON, afterwards. Nothing inside the library
 * is instrumented, so the untraced reps measure the library exactly as
 * users run it.
 *
 * A span's self time is its duration minus the time its child spans
 * cover. "Layer" spans are calls into the library; the others
 * ("rep", "scenario", ...) only give the trace its structure and are
 * left out of the stage sums.
 */
#ifndef FSMOE_PERFBENCH_TRACE_H
#define FSMOE_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fsmoe::bench {

struct Span
{
    std::string name;
    int64_t startNs = 0; ///< Since the tracer was created.
    int64_t endNs = 0;
    int parent = -1; ///< Index of the enclosing span, -1 for a root.
    int rep = 0;     ///< Traced rep the span belongs to.
    int64_t op = -1; ///< Scenario/query/job id shared by one op's spans.
    int64_t work = 0; ///< Units of work the call did (tasks, bytes, ...).
    bool layer = true;

    double durMs() const { return static_cast<double>(endNs - startNs) / 1e6; }
};

/** Per-layer totals of one traced rep. */
struct LayerTotals
{
    int64_t calls = 0;
    int64_t work = 0;
    double selfMs = 0.0;
    double inclMs = 0.0;
};

struct RepSummary
{
    double wallMs = 0.0;  ///< Duration of the rep's root span.
    double stageMs = 0.0; ///< Sum of the self times of its layer spans.
    std::map<std::string, LayerTotals> layers;
};

class Tracer
{
  public:
    Tracer() : epoch_(std::chrono::steady_clock::now()) {}

    /** Spans opened from now on belong to traced rep @p rep. */
    void setRep(int rep) { rep_ = rep; }

    /** Open a span nested in the innermost open one; returns its id. */
    int begin(const std::string &name, int64_t op, bool layer);
    /** Close span @p id (must be the innermost open one). */
    void end(int id);
    void addWork(int id, int64_t work) { spans_[id].work += work; }

    const std::vector<Span> &spans() const { return spans_; }

    /** One summary per traced rep, in rep order. */
    std::vector<RepSummary> summarize() const;

    /** The summary of the rep with the least wall time. */
    RepSummary fastestRep() const;

    /** Write every span as Chrome-trace JSON, one row per rep. */
    bool writeChromeTrace(const std::string &path, const std::string &process,
                          std::string *error) const;

  private:
    int64_t nowNs() const;
    /** Self time of every span, indexed like spans(). */
    std::vector<double> selfMs() const;

    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    int rep_ = 0;
};

/** RAII span; with a null tracer it does nothing. */
class Scope
{
  public:
    Scope(Tracer *t, const std::string &name, int64_t op = -1,
          bool layer = true)
        : t_(t), id_(t != nullptr ? t->begin(name, op, layer) : -1)
    {
    }
    ~Scope()
    {
        if (t_ != nullptr)
            t_->end(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void work(int64_t w)
    {
        if (t_ != nullptr)
            t_->addWork(id_, w);
    }

  private:
    Tracer *t_;
    int id_;
};

} // namespace fsmoe::bench

#endif // FSMOE_PERFBENCH_TRACE_H
