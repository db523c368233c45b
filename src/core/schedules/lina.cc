/**
 * @file
 * PipeMoE + Lina baseline: PipeMoE's pipelining with Lina's gradient
 * handling — gradients are partitioned into fixed-size chunks (30 MB
 * in the paper) and their AllReduces overlap expert computation and
 * dense parts of backpropagation. The fixed chunk size is what makes
 * the scheme hit-or-miss across configurations (paper §6.4): a slack
 * window smaller than one chunk's AllReduce stays unused, while an
 * oversized chunk collides with AlltoAll on the shared channel.
 */
#include <cmath>
#include <string>

#include "core/schedules/builtins.h"
#include "core/schedules/schedule.h"
#include "core/schedules/schedule_registry.h"

namespace fsmoe::core {

namespace {

using namespace detail;

class LinaSchedule : public DegreeSchedule
{
  public:
    /**
     * @param chunk_bytes Lina's fixed gradient bucket size (paper:
     *                    30 MB).
     * @param degree      Fixed pipeline degree; 0 searches 1..rMax.
     */
    LinaSchedule(double chunk_bytes, int degree)
        : DegreeSchedule(degree), chunk_bytes_(chunk_bytes)
    {
    }

    /**
     * spec() without chunkMB when one bucket takes the whole gradient:
     * when no bucket fills before the last backward layer and G, the
     * total gradient bytes folded in walkBackward()'s order, is at most
     * the chunk, every such chunk size emits one AllReduce of
     * predict(G) after the last backward layer (a full bucket at the
     * chunk G, a partial one above it), so the graph is the degree's
     * alone. Otherwise spec().
     */
    std::string
    graphKey(const ModelCost &model) const override
    {
        double pending = 0.0;
        for (auto it = model.layers.rbegin(); it != model.layers.rend();
             ++it) {
            if (pending >= chunk_bytes_)
                return spec();
            pending += it->workload.gradBytes;
        }
        if (pending > chunk_bytes_)
            return spec();
        return name() + "?chunkMB=whole&degree=" + std::to_string(degree());
    }

    void emit(sim::TaskGraph &graph, const ModelCost &model,
              int r) const override
    {
        emitInto(graph, model, r);
    }
    void emit(sim::DurationTally &tally, const ModelCost &model,
              int r) const override
    {
        emitInto(tally, model, r);
    }

  private:
    template <typename Sink>
    void
    emitInto(Sink &graph, const ModelCost &model, int r) const
    {
        // One AllReduce per full bucket plus a partial one, with slack
        // for rounding in `pending` below: reserved up front, so small
        // buckets do not regrow the graph.
        double grad_bytes = 0.0;
        for (const LayerCost &lc : model.layers)
            grad_bytes += lc.workload.gradBytes;
        const size_t buckets = static_cast<size_t>(grad_bytes / chunk_bytes_) +
                               model.layers.size() + 1;
        reserveIteration(graph, model.layers.size(), r, buckets);
        PipelineBuildOptions opts;
        opts.mergeCommLinks = true;

        sim::TaskId dep = -1;
        for (const LayerCost &lc : model.layers) {
            dep = appendAttention(graph, lc, Phase::Forward, opts, dep);
            dep = appendMoePhase(graph, lc, model.models, Phase::Forward,
                                 r, opts, dep);
        }
        std::vector<sim::TaskId> barrier_deps;
        barrier_deps.reserve(buckets + 1);
        walkBackward(
            model,
            [&](const LayerCost &lc) {
                dep = appendMoePhase(graph, lc, model.models,
                                     Phase::Backward, r, opts, dep);
                dep = appendAttention(graph, lc, Phase::Backward, opts, dep);
            },
            [&](double ms) {
                barrier_deps.push_back(graph.addTask(
                    "gar", sim::OpType::GradAllReduce, sim::Link::InterNode,
                    kGradAllReduce, ms, {dep}, /*priority=*/1));
            });
        barrier_deps.push_back(dep);
        graph.addTask("barrier", sim::OpType::Other, sim::Link::Compute,
                      kCompute, 0.0, std::move(barrier_deps));
    }

    /**
     * The bucket AllReduces run one at a time on the inter-node link
     * at every degree, so the last one finishes no earlier than the
     * rounded fold of their durations in start order: the sum of the
     * buckets emit() adds, within sim::Simulator::sumLowerBound's
     * margin.
     */
    double
    degreeFreeBound(const ModelCost &model) const override
    {
        double sum = 0.0;
        size_t buckets = 0;
        walkBackward(
            model, [](const LayerCost &) {},
            [&](double ms) {
                sum += ms;
                ++buckets;
            });
        return sim::Simulator::sumLowerBound(sum, buckets);
    }

    /**
     * The backward pass's layers, last to first, each followed by the
     * AllReduce duration of every bucket it fills; then the partial
     * bucket's, if any. Lina accumulates gradients into fixed-size
     * buckets across layers and flushes an AllReduce only when a bucket
     * fills; a partial bucket waits until backpropagation ends.
     * Readiness arbitration then lets full buckets ride whatever
     * channel slack exists in the remaining layers.
     */
    template <typename OnLayer, typename OnBucket>
    void
    walkBackward(const ModelCost &model, OnLayer on_layer,
                 OnBucket on_bucket) const
    {
        const double full_ms = model.models.allreduce.predict(chunk_bytes_);
        double pending = 0.0;
        for (auto it = model.layers.rbegin(); it != model.layers.rend();
             ++it) {
            on_layer(*it);
            pending += it->workload.gradBytes;
            while (pending >= chunk_bytes_) {
                on_bucket(full_ms);
                pending -= chunk_bytes_;
            }
        }
        if (pending > 0.0)
            on_bucket(model.models.allreduce.predict(pending));
    }

    double chunk_bytes_;
};

} // namespace

namespace detail {

void
registerLinaSchedules(ScheduleRegistry &registry)
{
    ScheduleInfo info;
    info.name = "PipeMoE+Lina";
    info.aliases = {"lina"};
    info.description =
        "PipeMoE's pipelining plus Lina's fixed-size gradient "
        "chunking overlapped with expert compute and dense backward";
    info.params = {
        {"chunkMB", ScheduleParamType::Double, "30",
         "fixed gradient bucket size in MB (the paper's Lina uses 30)",
         1.0 / 1024.0, 1024.0},
        {"degree", ScheduleParamType::Int, "0",
         "fixed pipeline degree r; 0 searches 1..rMax adaptively", 0.0,
         16.0},
    };
    registry.registerSchedule(info, [](const ScheduleParams &p) {
        const double chunk_bytes =
            p.getDouble("chunkMB", 30.0) * (1 << 20);
        return std::make_unique<LinaSchedule>(
            chunk_bytes, static_cast<int>(p.getInt("degree", 0)));
    });
}

} // namespace detail

} // namespace fsmoe::core
