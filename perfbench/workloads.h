/**
 * @file
 * The four bench_fsmoe workloads (README.md says why each exists):
 *
 *   sweep-cold   the 54-scenario demo grid, every cache cold per rep
 *   sweep-resim  the same grid, solver and cost caches warm, the
 *                SimResult cache off: graph build + simulate only
 *   tune-cold    4 cold Tuner::tune queries per rep
 *   service-3w   the blessed demo job through SweepServer, 3 workers
 *
 * A workload owns its inputs and its output checks; the driver in
 * bench_fsmoe.cc owns timing, repetition and reporting.
 */
#ifndef FSMOE_PERFBENCH_WORKLOADS_H
#define FSMOE_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace fsmoe::bench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunConfig
{
    uint64_t seed = 1;
    bool smoke = false;
    std::string workDir;   ///< Scratch directory for journals and outputs.
    std::string baselines; ///< Directory of the blessed demo_*.json.
};

/** Untraced rep times, in milliseconds. */
class Samples
{
  public:
    void add(double ms) { v_.push_back(ms); }
    size_t size() const { return v_.size(); }
    /** Nearest-rank percentile, @p p in (0, 1]; 0 gives the minimum. */
    double pct(double p) const;

  private:
    std::vector<double> v_;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build the inputs and state the reps need. The driver calls it
     * several times to time set-up; the last call's state is used.
     */
    virtual void setup() = 0;

    /** Scenarios (sweeps, service) or tuner specs evaluated per rep. */
    virtual double scenariosPerRep() const = 0;
    /** User requests per rep: a sweep, a job, or one tuner query. */
    virtual double queriesPerRep() const = 0;

    /**
     * One untraced rep. Returns its timed wall milliseconds; outputs
     * are checked afterwards, outside the timed region, into
     * attempted/failed.
     */
    virtual double rep() = 0;

    /**
     * The rep time the end-to-end metrics use: the fastest rep. A
     * shared host has phases in which everything runs up to ~1.3x
     * slower; they only ever add time, so the low end is what the code
     * decides.
     */
    virtual double fastestRepMs(const Samples &reps) const
    {
        return reps.pct(0.0);
    }

    /** One traced rep: the same work, with spans around layer calls. */
    virtual void tracedRep(Tracer &tracer) = 0;

    /**
     * Per-layer metrics only this workload can compute (the driver adds
     * the span-derived ones). @p untraced holds the untraced rep times.
     */
    virtual std::vector<Metric> layerMetrics(const Samples &untraced,
                                             const Tracer &tracer) = 0;

    uint64_t attempted = 0;
    uint64_t failed = 0;
};

/** The workload named @p name, or nullptr if there is none. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const RunConfig &config);

/** Every workload name, in the order `--workload all` runs them. */
const std::vector<std::string> &workloadNames();

} // namespace fsmoe::bench

#endif // FSMOE_PERFBENCH_WORKLOADS_H
