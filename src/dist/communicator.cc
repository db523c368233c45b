#include "dist/communicator.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "base/logging.h"

namespace fsmoe::dist {

ParallelLayout::ParallelLayout(int num_ep, int num_esp)
    : num_ep_(num_ep), num_esp_(num_esp)
{
    FSMOE_CHECK_ARG(num_ep >= 1 && num_esp >= 1,
                    "parallel group sizes must be >= 1, got EP=", num_ep,
                    " ESP=", num_esp);
}

Group
ParallelLayout::epGroup(int esp) const
{
    FSMOE_CHECK_ARG(esp >= 0 && esp < num_esp_, "esp index out of range");
    Group g;
    g.reserve(num_ep_);
    for (int ep = 0; ep < num_ep_; ++ep)
        g.push_back(rankOf(ep, esp));
    return g;
}

Group
ParallelLayout::espGroup(int ep) const
{
    FSMOE_CHECK_ARG(ep >= 0 && ep < num_ep_, "ep index out of range");
    Group g;
    g.reserve(num_esp_);
    for (int esp = 0; esp < num_esp_; ++esp)
        g.push_back(rankOf(ep, esp));
    return g;
}

Group
ParallelLayout::worldGroup() const
{
    Group g;
    g.reserve(worldSize());
    for (int r = 0; r < worldSize(); ++r)
        g.push_back(r);
    return g;
}

Communicator::Communicator(int world_size) : world_size_(world_size)
{
    FSMOE_CHECK_ARG(world_size >= 1, "world size must be >= 1");
}

void
Communicator::checkGroup(const std::vector<Tensor> &bufs, const Group &group,
                         const char *what) const
{
    FSMOE_CHECK_ARG(!group.empty(), what, ": empty group");
    FSMOE_CHECK_ARG(bufs.size() >= static_cast<size_t>(world_size_), what,
                    ": need one buffer per rank");
    for (size_t i = 0; i < group.size(); ++i) {
        const int r = group[i];
        FSMOE_CHECK_ARG(r >= 0 && r < world_size_, what, ": rank ", r,
                        " outside world of ", world_size_);
        FSMOE_CHECK_ARG(bufs[r].sameShape(bufs[group[0]]), what,
                        ": group buffers must agree in shape");
        for (size_t j = 0; j < i; ++j)
            FSMOE_CHECK_ARG(group[j] != r, what, ": rank ", r,
                            " appears twice in the group");
    }
}

namespace {

/**
 * One staged exchange pass: for every group member d and every chunk
 * slot c, the new buffer's rows [c*cr, (c+1)*cr) are copied from chunk
 * src(d, c).second of member src(d, c).first (indices are positions
 * within the group). All three AlltoAll algorithms are compositions of
 * such passes, which makes them pure data movement — bit-identical by
 * construction.
 */
void
exchangePass(std::vector<Tensor> &bufs, const Group &group,
             const std::function<std::pair<int, int>(int, int)> &src)
{
    const int g = static_cast<int>(group.size());
    const int64_t rows = bufs[group[0]].size(0);
    FSMOE_CHECK_ARG(rows % g == 0, "AlltoAll rows (", rows,
                    ") must divide by group size (", g, ")");
    const int64_t cr = rows / g;                       // rows per chunk
    const int64_t rw = bufs[group[0]].numel() / rows;  // row width

    std::vector<Tensor> out(g);
    for (int d = 0; d < g; ++d) {
        out[d] = Tensor(bufs[group[d]].shape());
        for (int c = 0; c < g; ++c) {
            auto [sm, sc] = src(d, c);
            const Tensor &from = bufs[group[sm]];
            std::copy(from.data() + sc * cr * rw,
                      from.data() + (sc + 1) * cr * rw,
                      out[d].data() + c * cr * rw);
        }
    }
    for (int d = 0; d < g; ++d)
        bufs[group[d]] = std::move(out[d]);
}

} // namespace

void
Communicator::allToAll(std::vector<Tensor> &bufs, const Group &group,
                       A2aAlgo algo, int ranks_per_node) const
{
    checkGroup(bufs, group, "AlltoAll");
    const int g = static_cast<int>(group.size());
    const int rpn = ranks_per_node;

    if (algo == A2aAlgo::NcclDirect || rpn <= 1 || g % rpn != 0 ||
        g == rpn) {
        // Direct pairwise exchange: out[d].chunk(s) = in[s].chunk(d).
        exchangePass(bufs, group,
                     [](int d, int c) { return std::make_pair(c, d); });
        return;
    }

    // Hierarchical staging. Group member (m, i) = index m*rpn + i,
    // where m is the node and i the local slot. The intra-node pass
    // exchanges chunks between slots of one node; the inter-node pass
    // exchanges node-aggregated messages between equal slots of all
    // nodes. Composing the two in either order yields the direct
    // permutation; the order is what distinguishes 1DH from 2DH.
    auto intra = [rpn](int d, int c) {
        const int m = d / rpn, i = d % rpn;
        const int mm = c / rpn, j = c % rpn;
        return std::make_pair(m * rpn + j, mm * rpn + i);
    };
    auto inter = [rpn](int d, int c) {
        const int m = d / rpn, i = d % rpn;
        const int mm = c / rpn, j = c % rpn;
        return std::make_pair(mm * rpn + i, m * rpn + j);
    };
    if (algo == A2aAlgo::Hier1D) {
        exchangePass(bufs, group, intra);
        exchangePass(bufs, group, inter);
    } else {
        exchangePass(bufs, group, inter);
        exchangePass(bufs, group, intra);
    }
}

void
Communicator::allGather(std::vector<Tensor> &bufs, const Group &group) const
{
    checkGroup(bufs, group, "AllGather");
    const int g = static_cast<int>(group.size());
    const int64_t rows = bufs[group[0]].size(0);
    const int64_t rw = bufs[group[0]].numel() / rows;

    std::vector<int64_t> shape = bufs[group[0]].shape();
    shape[0] = rows * g;
    Tensor gathered(shape);
    for (int s = 0; s < g; ++s) {
        std::copy(bufs[group[s]].data(),
                  bufs[group[s]].data() + rows * rw,
                  gathered.data() + s * rows * rw);
    }
    for (int s = 0; s < g; ++s)
        bufs[group[s]] = gathered;
}

void
Communicator::reduceScatter(std::vector<Tensor> &bufs,
                            const Group &group) const
{
    checkGroup(bufs, group, "ReduceScatter");
    const int g = static_cast<int>(group.size());
    const int64_t rows = bufs[group[0]].size(0);
    FSMOE_CHECK_ARG(rows % g == 0, "ReduceScatter rows (", rows,
                    ") must divide by group size (", g, ")");
    const int64_t cr = rows / g;
    const int64_t rw = bufs[group[0]].numel() / rows;

    Tensor sum = bufs[group[0]];
    for (int s = 1; s < g; ++s)
        sum.add_(bufs[group[s]]);

    std::vector<int64_t> shape = sum.shape();
    shape[0] = cr;
    for (int s = 0; s < g; ++s) {
        Tensor chunk(shape);
        std::copy(sum.data() + s * cr * rw, sum.data() + (s + 1) * cr * rw,
                  chunk.data());
        bufs[group[s]] = std::move(chunk);
    }
}

void
Communicator::allReduce(std::vector<Tensor> &bufs, const Group &group) const
{
    checkGroup(bufs, group, "AllReduce");
    Tensor sum = bufs[group[0]];
    for (size_t s = 1; s < group.size(); ++s)
        sum.add_(bufs[group[s]]);
    for (int r : group)
        bufs[r] = sum;
}

} // namespace fsmoe::dist
