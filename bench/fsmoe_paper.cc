/**
 * @file
 * Regenerates the paper's evaluation tables and figures and checks the
 * orderings its claims rest on:
 *
 *     fsmoe_paper [--figure NAME]
 *
 * NAME is one of fig5, fig6, fig7, fig8, table2, table5, table6 and
 * motivation (the §2.3 degree statistic).
 *
 * With no flag every figure prints, in paper order. The output is
 * deterministic; bench/baselines/paper_tables.txt pins it byte for
 * byte. Exit status: 0 when every gate holds, 1 with each broken gate
 * named on stderr, 2 on a bad command line.
 *
 * Gated orderings: FSMoE has the largest speedup in every Fig. 6/7/8
 * row; every Table 5 schedule matches or beats Tutel on every layer
 * and FSMoE has the largest mean; Table 6's largest gain is X-MoE's
 * and its smallest expert-choice's; communication is more than half
 * of every Table 2 phase; GEMM r^2 >= 0.9987 on both Fig. 5 testbeds.
 * Known deviations, printed but not gated: Table 2's AlltoAll share
 * leaves 10-35% in 5 of 8 rows, Fig. 5's AllReduce r^2 is below
 * 0.9999 on both testbeds, and §2.3 counts 1365 configurations with
 * differing degrees where the paper counts 912.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/json.h"
#include "core/gate.h"
#include "core/pipeline_solver.h"
#include "core/profiler.h"
#include "core/schedules/schedule_registry.h"
#include "model/gpipe.h"
#include "model/models.h"
#include "runtime/scenario.h"
#include "runtime/sweep_engine.h"

namespace {

using namespace fsmoe;

/** The gates that broke, each named with the row that broke it. */
using Gates = std::vector<std::string>;

void
gate(Gates &gates, bool holds, const std::string &name)
{
    if (!holds)
        gates.push_back(name);
}

void
header(const std::string &title)
{
    const std::string rule(78, '-');
    std::printf("%s\n%s\n%s\n", rule.c_str(), title.c_str(), rule.c_str());
}

std::string
padded(const std::string &s, size_t width)
{
    return s.size() >= width ? s : s + std::string(width - s.size(), ' ');
}

/** A batch-1 scenario of @p model on @p cluster, schedule unset. */
runtime::Scenario
scenario(const std::string &model, const std::string &cluster,
         int64_t seq_len, int num_layers)
{
    runtime::Scenario s;
    s.model = model;
    s.cluster = cluster;
    s.seqLen = seq_len;
    s.numLayers = num_layers; // 0 = the preset's depth
    return s;
}

/**
 * The makespan of each of @p schedules on each of @p cases (whose own
 * schedule is ignored), priced by one sweep: times[i][j] is
 * schedules[j] on cases[i].
 */
std::vector<std::vector<double>>
price(const std::vector<runtime::Scenario> &cases,
      const std::vector<std::string> &schedules)
{
    std::vector<runtime::Scenario> scenarios;
    for (const runtime::Scenario &c : cases)
        for (const std::string &name : schedules) {
            scenarios.push_back(c);
            scenarios.back().schedule = name;
        }
    const auto results = runtime::SweepEngine().run(scenarios);
    std::vector<std::vector<double>> times(cases.size());
    for (size_t k = 0; k < results.size(); ++k)
        times[k / schedules.size()].push_back(results[k].makespanMs);
    return times;
}

/**
 * The paper's Table 4 grid on cluster preset @p cluster: 3 (B) x
 * 3 (heads) x 3 (L) x 3 (M) x 3 (H/M) x 3 (f) x 2 (ffn) = 1458
 * configured layers, one two-layer scenario each (a two-deep stack
 * gives the configured layer's gradient traffic the dense windows of
 * the preceding layer to hide in, as in a real model's steady state).
 * L depends on the testbed (Testbed B uses halved sequence lengths,
 * §6.1); the schedule is left unset.
 */
std::vector<runtime::Scenario>
table4Layers(const std::string &cluster)
{
    const int64_t batches[] = {1, 2, 4};
    const int heads[] = {8, 16, 32};
    const int64_t lens_a[] = {512, 1024, 2048};
    const int64_t lens_b[] = {256, 512, 1024};
    const int64_t embeds[] = {1024, 2048, 4096};
    const int64_t hscales[] = {2, 3, 4};
    const double factors[] = {1.2, 2.4, 0.0}; // 0 is Table 4's "*"
    const char *swiglus[] = {"false", "true"};

    std::vector<runtime::Scenario> layers;
    for (int64_t b : batches)
        for (int h : heads)
            for (int64_t l : cluster == "testbedB" ? lens_b : lens_a)
                for (int64_t m : embeds)
                    for (int64_t hs : hscales)
                        for (double f : factors)
                            for (const char *swiglu : swiglus) {
                                // Canonical spelling: declared key order,
                                // doubles as json::fmtDouble prints them.
                                layers.push_back(scenario(
                                    "table4?heads=" + std::to_string(h) +
                                        "&embed=" + std::to_string(m) +
                                        "&hidden=" + std::to_string(m * hs) +
                                        "&cf=" + json::fmtDouble(f) +
                                        "&swiglu=" + swiglu,
                                    cluster, l, 2));
                                layers.back().batch = b;
                            }
    return layers;
}

/**
 * Table 2: per-operation time (ms and % of phase) of one transformer
 * layer of GPT2-XL and Mixtral-7B with B = 4, L = 1024.
 */
void
table2Row(Gates &gates, const std::string &label, const core::PhaseTimes &t,
          const std::string &cluster)
{
    const double comm =
        2.0 * t.a2a + t.gradAllReduce + t.allgather + t.reducescatter;
    const double total =
        comm + t.experts + t.routing + 2.0 * t.order + t.attention;
    auto share = [&](double v) { return 100.0 * v / total; };
    std::printf("%-18s", label.c_str());
    for (double v : {2.0 * t.a2a, t.gradAllReduce, t.allgather,
                     t.reducescatter, t.experts, t.routing, 2.0 * t.order,
                     t.attention})
        std::printf(" %7.1f(%5.2f%%)", v, share(v));
    const double a2a = share(2.0 * t.a2a);
    std::printf(" %7.2f%% %13s\n", share(comm),
                a2a >= 10.0 && a2a <= 35.0 ? "yes" : "no");
    gate(gates, comm > 0.5 * total,
         "table2: communication > 50% of " + label + " on " + cluster);
}

void
table2(Gates &gates)
{
    for (const sim::ClusterSpec &cluster : {sim::testbedA(), sim::testbedB()}) {
        header("Table 2 breakdown on " + cluster.name +
               " (per transformer layer, B=4, L=1024, ms)");
        std::printf("%-18s %15s %15s %15s %15s %15s %15s %15s %15s %8s %13s\n",
                    "", "AlltoAll", "AllReduce", "AllGather",
                    "ReduceScatter", "Experts", "Routing", "Order",
                    "Attention", "Comm", "A2A in 10-35%");
        const core::ParallelConfig par = model::paperParallelism(cluster);
        const core::PerfModelSet models =
            core::PerfModelSet::fromCluster(cluster);
        for (const model::ModelSpec &spec :
             {model::gpt2XlMoe(cluster.numNodes, 4, 1024),
              model::mixtral7B(cluster.numNodes, 4, 1024)}) {
            const core::Workload w = core::deriveWorkload(spec.layer, par);
            const std::string name =
                spec.name == "GPT2-XL-MoE" ? "GPT2" : "Mixtral";
            table2Row(gates, name + "-Forward",
                      core::forwardTimes(models, w), cluster.name);
            table2Row(gates, name + "-Backward",
                      core::backwardTimes(models, w), cluster.name);
        }
        std::printf("\nPaper shape check: communication (AlltoAll + "
                    "AllReduce + AllGather + ReduceScatter)\nexceeds 50%% "
                    "of each phase (gated here), AlltoAll alone is 10-35%% "
                    "(last column; not gated,\na known deviation), "
                    "routing/order are negligible.\n\n");
    }
}

/**
 * §2.3: across the 1458 Table 4 configurations on the 32-GPU testbed,
 * how many prefer different optimal pipeline degrees in forward and
 * backward, and the distribution of the chosen degrees.
 */
void
motivation(Gates &)
{
    const runtime::ScenarioRegistry &reg =
        runtime::ScenarioRegistry::instance();
    const sim::ClusterSpec cluster = reg.makeCluster("testbedB");
    const core::ParallelConfig par = model::paperParallelism(cluster);
    const core::PerfModelSet models = core::PerfModelSet::fromCluster(cluster);
    const auto grid = table4Layers("testbedB");

    int differ = 0;
    std::map<std::pair<int, int>, int> degree_pairs;
    for (const runtime::Scenario &s : grid) {
        const core::Workload w =
            core::deriveWorkload(reg.makeModel(s, cluster).layer, par);
        const int rf = core::solvePipeline(core::makeProblem(
                           models, w, core::Phase::Forward)).r;
        const int rb = core::solvePipeline(core::makeProblem(
                           models, w, core::Phase::Backward,
                           models.allreduce.predict(w.gradBytes))).r;
        differ += rf != rb;
        degree_pairs[{rf, rb}]++;
    }

    header("Motivation (§2.3): forward-vs-backward optimal pipeline "
           "degrees on " + cluster.name);
    std::printf("configs with different fwd/bwd degrees: %d / %zu "
                "(paper: 912 / 1458)\n\n",
                differ, grid.size());
    std::printf("%8s %8s %8s\n", "r_fwd", "r_bwd", "count");
    for (const auto &[pair, count] : degree_pairs)
        std::printf("%8d %8d %8d\n", pair.first, pair.second, count);
}

const char *
opName(core::ProfileOp op)
{
    switch (op) {
      case core::ProfileOp::AlltoAll: return "AlltoAll";
      case core::ProfileOp::AllGather: return "AllGather";
      case core::ProfileOp::ReduceScatter: return "ReduceScatter";
      case core::ProfileOp::AllReduce: return "AllReduce";
      case core::ProfileOp::Gemm: return "GEMM";
      default: return "?";
    }
}

/**
 * Fig. 5: fitted alpha/beta and r^2 of the four collectives and GEMM.
 * The "measurements" come from the simulated cluster with 1% relative
 * noise, averaged over five runs, mirroring §6.2's protocol.
 */
void
fig5(Gates &gates)
{
    for (sim::ClusterSpec cluster : {sim::testbedA(), sim::testbedB()}) {
        cluster.measurementNoise = 0.01;
        header("Fig. 5 performance models on " + cluster.name +
               " (5-run averages, 1% noise)");
        core::Profiler profiler(cluster, /*seed=*/2025, /*runs=*/5);
        std::printf("%-14s %12s %12s %10s   sample fit (measured -> "
                    "predicted, ms)\n",
                    "op", "alpha[ms]", "beta[ms/u]", "r^2");
        for (core::ProfileOp op :
             {core::ProfileOp::AlltoAll, core::ProfileOp::AllGather,
              core::ProfileOp::ReduceScatter, core::ProfileOp::AllReduce,
              core::ProfileOp::Gemm}) {
            const core::ProfileResult res = profiler.profile(op);
            std::printf("%-14s %12.3e %12.3e %10.6f", opName(op),
                        res.model.alpha, res.model.beta, res.model.r2);
            // First / middle / last sweep points.
            for (size_t i : {size_t{0}, res.sizes.size() / 2,
                             res.sizes.size() - 1})
                std::printf("  %7.3f->%7.3f", res.measured[i],
                            res.model.predict(res.sizes[i]));
            std::printf("\n");
            if (op == core::ProfileOp::Gemm)
                gate(gates, res.model.r2 >= 0.9987,
                     "fig5: GEMM r^2 >= 0.9987 on " + cluster.name);
        }
        std::printf("\nPaper reference (Fig. 5 caption): r^2 >= 0.9987 for "
                    "GEMM and >= 0.9999 for the collectives.\n\n");
    }
}

/**
 * Table 5: mean speedups over Tutel (with PipeMoE) across the 1458
 * configured layers of Table 4. Each configured case is one
 * generalized layer with its gradient aggregation included (§6.3).
 */
void
table5(Gates &gates)
{
    const std::vector<std::string> schedules = {"Tutel", "Tutel-Improved",
                                                "FSMoE-No-IIO", "FSMoE"};
    for (const char *cluster : {"testbedA", "testbedB"}) {
        const auto times = price(table4Layers(cluster), schedules);
        const size_t layers = times.size();
        const std::string testbed =
            runtime::ScenarioRegistry::instance().makeCluster(cluster).name;

        std::vector<double> speedup_sum(schedules.size(), 0.0);
        std::vector<size_t> wins(schedules.size(), 0);
        for (const std::vector<double> &t : times)
            for (size_t i = 0; i < schedules.size(); ++i) {
                speedup_sum[i] += t[0] / t[i];
                wins[i] += t[i] <= t[0] * 1.0001;
            }

        header("Table 5: average speedup over Tutel(+PipeMoE) on " +
               std::to_string(layers) + " configured layers, " + testbed);
        std::printf("%-18s %10s %14s\n", "Schedule", "Speedup",
                    ">=Tutel cases");
        for (size_t i = 0; i < schedules.size(); ++i) {
            const std::string &name = schedules[i];
            std::printf("%-18s %9.2fx %13.1f%%\n", name.c_str(),
                        speedup_sum[i] / layers, 100.0 * wins[i] / layers);
            gate(gates, wins[i] == layers,
                 "table5: " + name + " >= Tutel on every layer of " +
                     testbed);
            gate(gates, i + 1 == schedules.size() ||
                            speedup_sum[i] < speedup_sum.back(),
                 "table5: FSMoE's mean speedup above " + name +
                     "'s on " + testbed);
        }
        std::printf("\nPaper reference: Tutel-Improved 1.08-1.09x, "
                    "FSMoE-No-IIO 1.12-1.16x, FSMoE 1.18-1.22x.\n\n");
    }
}

/**
 * Figs. 6-8: one row per case with the first registered schedule's
 * (DS-MoE's) time in ms, then every other registered schedule's
 * speedup over it. Constructing one prints the header row. Gate:
 * FSMoE's speedup is the largest in every row.
 */
class SpeedupTable
{
  public:
    SpeedupTable(const std::string &figure, const std::string &label_header,
                 int label_width)
        : figure_(figure), label_width_(label_width),
          names_(core::ScheduleRegistry::instance().names())
    {
        // Short headings keep the built-in columns 8 wide; a schedule
        // registered beyond them is headed by its full name.
        const std::map<std::string, std::string> short_names = {
            {"DS-MoE", "DS"}, {"Tutel-Improved", "Tutel+"},
            {"PipeMoE+Lina", "Lina"}, {"FSMoE-No-IIO", "No-IIO"}};
        std::printf("%-*s", label_width_, label_header.c_str());
        for (size_t i = 0; i < names_.size(); ++i) {
            const auto it = short_names.find(names_[i]);
            std::string col =
                it == short_names.end() ? names_[i] : it->second;
            if (i == 0)
                col += "[ms]";
            widths_.push_back(std::max<int>(i == 0 ? 9 : 8, col.size()));
            std::printf(" %*s", widths_[i], col.c_str());
        }
        std::printf("\n");
    }

    /** Print the row of @p ms, one time per column. */
    void row(Gates &gates, const std::string &label,
             const std::vector<double> &ms) const
    {
        std::vector<double> speedup;
        for (double t : ms)
            speedup.push_back(ms[0] / t);
        std::printf("%-*s %*.1f", label_width_, label.c_str(), widths_[0],
                    ms[0]);
        for (size_t i = 1; i < names_.size(); ++i)
            std::printf(" %*.2fx", widths_[i] - 1, speedup[i]);
        std::printf("\n");

        const size_t fsmoe =
            std::find(names_.begin(), names_.end(), "FSMoE") - names_.begin();
        bool largest = fsmoe < names_.size();
        for (size_t i = 1; largest && i < names_.size(); ++i)
            largest = i == fsmoe || speedup[fsmoe] > speedup[i];
        gate(gates, largest,
             figure_ + ": FSMoE has the largest speedup in '" + label + "'");
    }

  private:
    std::string figure_;
    int label_width_;
    std::vector<std::string> names_;
    std::vector<int> widths_;
};

/**
 * Fig. 6: real-world models, settings per §6.4: B=1, k=2, f=1.2,
 * L=1024 on Testbed A / 256 on B, E = number of nodes, 7 Mixtral-7B
 * layers on Testbed B.
 */
void
fig6(Gates &gates)
{
    header("Fig. 6: speedup over DeepSpeed-MoE (DS-MoE) on real-world "
           "MoE models");
    const SpeedupTable table("fig6", padded("Model", 14) + " Testbed", 49);
    const std::vector<runtime::Scenario> cases = {
        scenario("gpt2xl-moe", "testbedA", 1024, 0),
        scenario("mixtral-7b", "testbedA", 1024, 0),
        scenario("mixtral-22b", "testbedA", 1024, 0),
        scenario("gpt2xl-moe", "testbedB", 256, 0),
        scenario("mixtral-7b", "testbedB", 256, 7)};
    const auto times =
        price(cases, core::ScheduleRegistry::instance().names());
    for (size_t i = 0; i < cases.size(); ++i)
        table.row(gates,
                  padded(cases[i].model, 14) + " " +
                      runtime::ScenarioRegistry::instance()
                          .makeCluster(cases[i].cluster)
                          .name,
                  times[i]);
    std::printf("\nPaper reference: FSMoE 1.28-3.01x over DS-MoE, Tutel "
                "1.16-2.59x; FSMoE averages 1.19x over Tutel,\n1.12x over "
                "Tutel-Improved, 1.14x over PipeMoE+Lina, 1.07x over "
                "FSMoE-No-IIO.\n");
}

/**
 * Fig. 7: Testbed A with varied sequence length L in {512, 1024, 2048}
 * at P = 48, and varied GPU count P in {16, 32, 48} at L = 1024 (P
 * varies with the node count, at 8 GPUs per node), 16 Mixtral-7B
 * layers each.
 */
void
fig7(Gates &gates)
{
    header("Fig. 7: speedups over DS-MoE on Testbed A (Mixtral-7B-style "
           "layers)");
    const SpeedupTable table("fig7", "Configuration", 22);
    std::vector<runtime::Scenario> cases;
    for (int64_t l : {512, 1024, 2048})
        cases.push_back(scenario("mixtral-7b", "testbedA", l, 16));
    for (int nodes : {2, 4, 6})
        cases.push_back(scenario(
            "mixtral-7b", "testbedA?nodes=" + std::to_string(nodes), 1024, 16));
    const auto times =
        price(cases, core::ScheduleRegistry::instance().names());
    for (size_t i = 0; i < cases.size(); ++i) {
        const std::string l = "L=" + std::to_string(cases[i].seqLen);
        const std::string p = "P=" + std::to_string(
                                         runtime::ScenarioRegistry::instance()
                                             .makeCluster(cases[i].cluster)
                                             .totalGpus());
        if (i == 0 || i == 3)
            std::printf(i == 0 ? "-- varied L at P = 48 --\n"
                               : "-- varied P at L = 1024 --\n");
        table.row(gates, i < 3 ? l + ", " + p : p + ", " + l, times[i]);
    }
    std::printf("\nPaper reference: FSMoE 2.17-3.14x over DS-MoE and "
                "1.16-1.20x over Tutel across these sweeps.\n");
}

/** Fig. 8: Testbed A with pipeline parallelism (GPipe, N_PP = 2). */
void
fig8(Gates &gates)
{
    header("Fig. 8: speedups over DS-MoE with pipeline parallelism "
           "(GPipe, N_PP=2, Testbed A)");
    const SpeedupTable table("fig8", "Model", 14);
    const sim::ClusterSpec a = sim::testbedA();
    const int micro_batches = 4;
    for (const model::ModelSpec &spec :
         {model::gpt2XlMoe(a.numNodes / 2, 4, 1024, 24),
          model::mixtral7B(a.numNodes / 2, 4, 1024, 32),
          model::mixtral22B(a.numNodes / 2, 4, 1024, 33)}) {
        std::vector<double> ms;
        for (const std::string &name :
             core::ScheduleRegistry::instance().names())
            ms.push_back(model::gpipeIteration(*core::Schedule::create(name),
                                               spec, a, 2, micro_batches)
                             .iterationMs);
        table.row(gates, spec.name, ms);
    }
    std::printf("\nPaper reference: with PP enabled FSMoE averages 2.46x "
                "over DS-MoE, 1.16x over Tutel, 1.10x over\n"
                "Tutel-Improved, 1.12x over PipeMoE+Lina and 1.05x over "
                "FSMoE-No-IIO.\n");
}

/** DS-MoE's original gate implementations against FSMoE's fused ones. */
double
dsGateSlowdown(core::GateKind kind)
{
    switch (kind) {
      case core::GateKind::GShard: return 2.0;
      case core::GateKind::XMoe: return 2.6;
      case core::GateKind::Sigmoid: return 2.0;
      case core::GateKind::ExpertChoice: return 1.5;
      default: return 1.0;
    }
}

/**
 * Table 6: GPT2-XL iteration time on Testbed B under each gating
 * function, DS-MoE against FSMoE. The simulator prices the schedule
 * difference; per-gate slowdown factors for DS-MoE's original gate
 * kernels (calibrated from Table 6's per-gate spreads) scale its
 * routing term. The gate term is <1% of an iteration, so the factors
 * reproduce the per-gate ordering, not the totals.
 */
void
table6(Gates &gates)
{
    const sim::ClusterSpec cluster = sim::testbedB();
    header("Table 6: GPT2-XL iteration time per gating function on " +
           cluster.name);
    std::printf("%-16s %14s %14s %10s\n", "Gating", "DS-MoE[ms]",
                "FSMoE[ms]", "Speedup");

    const core::ModelCost base = model::makeModelCost(
        model::gpt2XlMoe(cluster.numNodes, 1, 256, 24), cluster,
        model::paperParallelism(cluster));
    const double fs = core::Schedule::create("FSMoE")->iterationTimeMs(base);
    std::map<core::GateKind, double> gain;
    for (core::GateKind kind :
         {core::GateKind::GShard, core::GateKind::XMoe,
          core::GateKind::Sigmoid, core::GateKind::ExpertChoice}) {
        core::ModelCost ds_cost = base;
        for (core::LayerCost &lc : ds_cost.layers) {
            lc.fwd.routing *= dsGateSlowdown(kind);
            lc.bwd.routing *= dsGateSlowdown(kind);
        }
        const double ds =
            core::Schedule::create("DS-MoE")->iterationTimeMs(ds_cost);
        gain[kind] = ds / fs;
        std::printf("%-16s %14.1f %14.1f %9.2fx\n", core::gateKindName(kind),
                    ds, fs, ds / fs);
    }
    for (const auto &[kind, g] : gain) {
        const char *name = core::gateKindName(kind);
        gate(gates, kind == core::GateKind::XMoe ||
                        g < gain[core::GateKind::XMoe],
             std::string("table6: X-MoE's gain above ") + name + "'s");
        gate(gates, kind == core::GateKind::ExpertChoice ||
                        g > gain[core::GateKind::ExpertChoice],
             std::string("table6: expert-choice's gain below ") + name +
                 "'s");
    }
    std::printf("\nPaper reference: GShard 968.1->707.7 (1.37x), X-MoE "
                "1064.0->746.9 (1.42x), Sigmoid 986.6->721.0\n(1.37x), EC "
                "909.9->685.5 (1.33x). Expect the same ordering: X-MoE "
                "largest gain, EC smallest.\n");
}

struct Figure
{
    const char *name;
    void (*run)(Gates &);
};

/** Paper order: §2 (Table 2, §2.3), then §6 (Fig. 5 to Table 6). */
const Figure kFigures[] = {
    {"table2", table2}, {"motivation", motivation}, {"fig5", fig5},
    {"table5", table5}, {"fig6", fig6},             {"fig7", fig7},
    {"fig8", fig8},     {"table6", table6}};

} // namespace

int
main(int argc, char **argv)
{
    std::string names;
    bool known = argc == 1;
    for (const Figure &f : kFigures) {
        names += std::string(" ") + f.name;
        known = known || (argc == 3 && std::strcmp(argv[2], f.name) == 0);
    }
    if (argc != 1 && (argc != 3 || std::strcmp(argv[1], "--figure") != 0)) {
        std::fprintf(stderr, "usage: fsmoe_paper [--figure NAME]; valid "
                     "names:%s\n", names.c_str());
        return 2;
    }
    if (!known) {
        std::fprintf(stderr, "fsmoe_paper: unknown figure '%s'; valid "
                     "names:%s\n", argv[2], names.c_str());
        return 2;
    }

    Gates gates;
    for (const Figure &f : kFigures)
        if (argc == 1 || std::strcmp(argv[2], f.name) == 0)
            f.run(gates);
    for (const std::string &g : gates)
        std::fprintf(stderr, "fsmoe_paper: gate failed: %s\n", g.c_str());
    return gates.empty() ? 0 : 1;
}
