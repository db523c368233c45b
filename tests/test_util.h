/**
 * @file
 * Shared helpers for the FSMoE test suite: finite-difference gradient
 * checking, tensor comparison utilities, task-graph replay and
 * bitwise comparison of simulated runs.
 */
#ifndef FSMOE_TESTS_TEST_UTIL_H
#define FSMOE_TESTS_TEST_UTIL_H

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "sim/task_graph.h"
#include "sim/trace.h"
#include "tensor/tensor.h"

namespace fsmoe::test {

/**
 * Central-difference derivative of a scalar function of one tensor
 * element: perturbs x[index] by +/-eps around its current value.
 */
inline double
numericalGrad(Tensor &x, int64_t index,
              const std::function<double()> &loss, double eps = 1e-3)
{
    const float saved = x.flat(index);
    x.flat(index) = saved + static_cast<float>(eps);
    double up = loss();
    x.flat(index) = saved - static_cast<float>(eps);
    double down = loss();
    x.flat(index) = saved;
    return (up - down) / (2.0 * eps);
}

/** EXPECT that two tensors match elementwise within a tolerance. */
inline void
expectClose(const Tensor &a, const Tensor &b, float tol = 1e-4f,
            const char *what = "tensors")
{
    ASSERT_TRUE(a.sameShape(b)) << what << ": shape " << a.shapeString()
                                << " vs " << b.shapeString();
    EXPECT_LE(maxAbsDiff(a, b), tol) << what;
}

/**
 * Compare an analytic gradient tensor against finite differences of a
 * scalar loss, probing a strided subset of elements to keep runtime
 * bounded.
 */
inline void
expectGradMatches(Tensor &x, const Tensor &analytic,
                  const std::function<double()> &loss, double eps = 1e-2,
                  double tol = 2e-2, int64_t max_probes = 40)
{
    ASSERT_TRUE(x.sameShape(analytic));
    const int64_t stride = std::max<int64_t>(1, x.numel() / max_probes);
    for (int64_t i = 0; i < x.numel(); i += stride) {
        double num = numericalGrad(x, i, loss, eps);
        double ana = analytic.flat(i);
        double scale = std::max({1.0, std::fabs(num), std::fabs(ana)});
        EXPECT_NEAR(ana, num, tol * scale)
            << "gradient mismatch at flat index " << i;
    }
}

/** Bitwise equality of two doubles (tells -0 from 0; NaN == same NaN). */
inline bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * Append every task of @p src to @p dst, either task sink, with the
 * same addTask calls a builder made, e.g. to feed a built graph to a
 * sim::DurationTally.
 */
template <typename Sink>
void
replayGraph(const sim::TaskGraph &src, Sink &dst)
{
    std::vector<sim::TaskId> deps;
    for (const sim::Task &t : src.tasks()) {
        const sim::DepSpan span = src.deps(t.id);
        deps.assign(span.begin(), span.end());
        dst.addTask(t.label, t.op, t.link, t.stream, t.duration, deps,
                    t.priority);
    }
}

/** Bitwise agreement of two runs over graph @p g, field by field. */
inline void
expectIdentical(const sim::TaskGraph &g, const sim::SimResult &got,
                const sim::SimResult &want, const std::string &what)
{
    ASSERT_EQ(got.trace.size(), want.trace.size()) << what;
    EXPECT_TRUE(sameBits(got.makespan, want.makespan))
        << what << ": makespan " << got.makespan << " vs "
        << want.makespan;
    for (size_t op = 0; op < want.opTime.size(); ++op)
        EXPECT_TRUE(sameBits(got.opTime[op], want.opTime[op]))
            << what << ": op "
            << sim::opTypeName(static_cast<sim::OpType>(op));
    for (size_t li = 0; li < want.linkBusyMs.size(); ++li)
        EXPECT_TRUE(sameBits(got.linkBusyMs[li], want.linkBusyMs[li]))
            << what << ": link "
            << sim::linkName(static_cast<sim::Link>(li));
    for (size_t i = 0; i < want.trace.size(); ++i) {
        EXPECT_EQ(got.trace[i].id, want.trace[i].id) << what << " #" << i;
        EXPECT_TRUE(sameBits(got.trace[i].start, want.trace[i].start))
            << what << ": " << g.taskName(static_cast<sim::TaskId>(i));
        EXPECT_TRUE(sameBits(got.trace[i].finish, want.trace[i].finish))
            << what << ": " << g.taskName(static_cast<sim::TaskId>(i));
    }
}

} // namespace fsmoe::test

#endif // FSMOE_TESTS_TEST_UTIL_H
