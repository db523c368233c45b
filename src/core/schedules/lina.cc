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
     * The degree's key without chunkMB when one bucket takes the whole
     * gradient: when no bucket fills before the last backward layer
     * and G, the total gradient bytes folded in walkBackward()'s order,
     * is at most the chunk, every such chunk size emits one AllReduce
     * of predict(G) after the last backward layer (a full bucket at the
     * chunk G, a partial one above it), so the graph is the degree's
     * alone. Otherwise the default key.
     */
    std::string
    graphKey(const ModelCost &model) const override
    {
        double pending = 0.0;
        for (auto it = model.layers.rbegin(); it != model.layers.rend();
             ++it) {
            if (pending >= chunk_bytes_)
                return Schedule::graphKey(model);
            pending += it->workload.gradBytes;
        }
        if (pending > chunk_bytes_)
            return Schedule::graphKey(model);
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
            dep = appendAttention(graph, lc, Phase::Forward, dep);
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
                dep = appendAttention(graph, lc, Phase::Backward, dep);
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
     * A bound on every degree's makespan from the bucket AllReduces
     * alone, in O(layers) whatever the bucket count. They run one at a
     * time, in emit() order, on one stream at every degree, so the last
     * one finishes no earlier than W, the rounded left fold of their
     * durations in that order.
     *
     * Why it is at most W, with u = 2^-53 and c the chunk:
     * walkBackward() emits N full buckets of f = predict(c), then, when
     * its final pending p is positive, one of predict(p); with
     * T = N c + p (exact), 0 <= p < c gives N = floor(T / c). T is the
     * gradient total up to the walk's roundings: its `pending += bytes`
     * and its `pending -= chunk`, which round for a 17-digit chunk
     * (not for 1 KB buckets of whole bytes). G, the gradient bytes
     * folded last layer first, stands in for T. Each rounding is at
     * most u times its result: the walk's results in layer k stay
     * below M = (c + g_k)(1 + u), and there it subtracts at most
     * 2M / c times when c + g_k <= 2^51 c; G's k-th addition rounds by
     * at most u G_k, its k-th partial sum. So |T - G| is at most
     * u sum_k (M (1 + 2M / c) + G_k), which e's factor 2u covers with
     * the rounding of computing it; e's 4uc covers the roundings of
     * p' below.
     *
     * With T' = G - e <= T, N' = floor(T' / c) and p' = T' - N' c
     * (fmod is exact), the exact N' f + predict(p') is at most the
     * walk's exact N f + [p > 0] predict(p) when the graph builds
     * (every duration >= 0) and beta >= 0 (predict, rounding included,
     * is nondecreasing): N >= N' since T >= T'; when N > N', one of the
     * walk's full buckets, f >= predict(p') as p' <= c, covers the
     * partial term; when N = N', p >= p' > 0. W, a fold of at most
     * N + 1 such terms, is at least (1 - u)^N times their exact sum;
     * N <= N' + 2 since e < c / 2; and the computed
     * N' f + predict(p') is at most (1 + u)^2 times the larger of its
     * exact value and N' f. sumLowerBound's factor at N' + 2 terms,
     * 1 - 4(N' + 3)u, covers all three and its own rounding.
     *
     * So it stays below W by about that factor, the fold's rounding and
     * beta e, except when the walk's partial bucket holds at most about
     * 2e bytes, whose predict() it then drops. A layer of negative or
     * non-finite bytes, a negative beta, or a chunk below 2^-51 of a
     * layer gives 0.
     */
    double
    degreeFreeBound(const ModelCost &model) const override
    {
        constexpr double u = 0x1p-53;
        const double c = chunk_bytes_;
        const LinearModel &allreduce = model.models.allreduce;
        if (!(allreduce.beta >= 0.0))
            return 0.0;
        double grad = 0.0;
        double slack = 0.0;
        for (auto it = model.layers.rbegin(); it != model.layers.rend();
             ++it) {
            const double g = it->workload.gradBytes;
            const double m = c + g;
            if (!(g >= 0.0 && m <= 0x1p51 * c))
                return 0.0;
            grad += g;
            slack += m * (1.0 + 2.0 * m / c) + grad;
        }
        const double e = 2.0 * u * slack + 4.0 * u * c;
        if (!(e < 0.5 * c && grad < 0x1p50 * c))
            return 0.0;
        // G's full buckets (exact below 2^50) and remainder, then
        // T' = G - e's.
        const double rem = std::fmod(grad, c);
        double full = std::nearbyint((grad - rem) / c);
        double partial = rem - e;
        if (rem <= e) {
            if (full < 1.0)
                return 0.0;
            full -= 1.0;
            partial = c - (e - rem);
        }
        const double sum =
            full * allreduce.predict(c) + allreduce.predict(partial);
        return sim::Simulator::sumLowerBound(
            sum, static_cast<size_t>(full) + 2);
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
