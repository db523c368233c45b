/**
 * @file
 * In-process distributed runtime: rank groups, the DP/EP/ESP rank
 * layout of paper Fig. 2, and a Communicator that executes collective
 * operations over per-rank tensor buffers held in one address space.
 *
 * Every collective takes the *world-indexed* buffer vector plus the
 * group of global ranks that participate; ranks outside the group are
 * left untouched, so hybrid layouts simply run one collective per
 * group (e.g. one AlltoAll per EP group).
 *
 * AlltoAll supports the three algorithms the paper's dispatch module
 * discusses (NCCL direct, 1DH, 2DH). The hierarchical variants stage
 * the exchange through intra-node and inter-node passes; they are pure
 * data movement and therefore bit-identical to the direct algorithm —
 * a property dist_test asserts over a grid of node counts.
 */
#ifndef FSMOE_DIST_COMMUNICATOR_H
#define FSMOE_DIST_COMMUNICATOR_H

#include <vector>

#include "tensor/tensor.h"

namespace fsmoe::dist {

/** An ordered set of global ranks participating in a collective. */
using Group = std::vector<int>;

/** AlltoAll algorithm (see core/dispatch.h for the cost models). */
enum class A2aAlgo
{
    NcclDirect, ///< Single-stage pairwise exchange.
    Hier1D,     ///< Hetu-style: intra-node aggregation, then inter-node.
    Hier2D,     ///< Tutel/DeepSpeed-style: the same stages, inter first.
};

/**
 * Maps between global ranks and (EP, ESP) coordinates. Ranks of one
 * node (one ESP group) are contiguous: rank = ep * numEsp + esp, so
 * espGroup(ep) models the NVLink-connected GPUs of node `ep` and
 * epGroup(esp) the inter-node ring of GPUs with local index `esp`.
 */
class ParallelLayout
{
  public:
    ParallelLayout(int num_ep, int num_esp);

    int worldSize() const { return num_ep_ * num_esp_; }
    int numEp() const { return num_ep_; }
    int numEsp() const { return num_esp_; }

    int rankOf(int ep, int esp) const { return ep * num_esp_ + esp; }
    int epOf(int rank) const { return rank / num_esp_; }
    int espOf(int rank) const { return rank % num_esp_; }

    /** Ranks {esp, numEsp+esp, ...}: one GPU per node, fixed slot. */
    Group epGroup(int esp) const;
    /** The contiguous ranks of node @p ep. */
    Group espGroup(int ep) const;
    /** Every rank, in order. */
    Group worldGroup() const;

  private:
    int num_ep_ = 1;
    int num_esp_ = 1;
};

/**
 * Executes collectives over per-rank buffers. Stateless apart from the
 * world size; all methods validate that group ranks are in range and
 * that participating buffers agree in shape.
 */
class Communicator
{
  public:
    explicit Communicator(int world_size);

    int worldSize() const { return world_size_; }

    /**
     * AlltoAll over @p group: with G = group.size(), each member's
     * buffer is split into G equal row-chunks and chunk d of member s
     * becomes chunk s of member d.
     *
     * @param algo           Exchange algorithm; hierarchical variants
     *                       produce bit-identical results to direct.
     * @param ranks_per_node Node width used by the hierarchical
     *                       algorithms (consecutive group members form
     *                       a node); 1 degenerates to direct.
     */
    void allToAll(std::vector<Tensor> &bufs, const Group &group,
                  A2aAlgo algo = A2aAlgo::NcclDirect,
                  int ranks_per_node = 1) const;

    /** Concatenate members' buffers along dim 0, result on every member. */
    void allGather(std::vector<Tensor> &bufs, const Group &group) const;

    /** Elementwise-sum members' buffers, then split the sum into G row
     *  chunks; member i keeps chunk i. */
    void reduceScatter(std::vector<Tensor> &bufs, const Group &group) const;

    /** Elementwise-sum members' buffers, result on every member. */
    void allReduce(std::vector<Tensor> &bufs, const Group &group) const;

  private:
    void checkGroup(const std::vector<Tensor> &bufs, const Group &group,
                    const char *what) const;

    int world_size_ = 1;
};

} // namespace fsmoe::dist

#endif // FSMOE_DIST_COMMUNICATOR_H
