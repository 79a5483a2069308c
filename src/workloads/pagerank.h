/**
 * @file
 * Vertex-centric pull PageRank, following the paper's Algorithm 1
 * (Ligra-derived) including its RnR instrumentation and the p_curr /
 * p_next base swap at the end of every iteration.
 *
 * Each core owns a contiguous destination-vertex range (METIS-equivalent
 * partitioning with relabelling).  Per iteration, core c:
 *   1. edge phase — for each owned d: reads offsets[d], then for every
 *      in-edge (s,d) reads in_edges[j] (streaming) and p_curr[s]
 *      (irregular, the RnR target), accumulating into p_next[d];
 *   2. normalise phase (PRNormalize) — streaming pass computing
 *      p_next = (alpha*p_next + (1-alpha)/|V|)/deg and the L1 diff,
 *      and zeroing p_curr.
 * The real rank values are computed alongside trace emission.
 */
#ifndef RNR_WORKLOADS_PAGERANK_H
#define RNR_WORKLOADS_PAGERANK_H

#include "workloads/graph.h"
#include "workloads/partition.h"
#include "workloads/workload.h"

namespace rnr {

class PageRankWorkload : public Workload
{
  public:
    PageRankWorkload(Graph graph, WorkloadOptions opts,
                     double alpha = 0.85);

    std::string name() const override { return "pagerank"; }
    std::uint64_t inputBytes() const override;
    std::uint64_t targetBytes() const override;
    DropletHint dropletHint(unsigned core) const override;
    IndexSniffer impSniffer(unsigned core) const override;

    /** Replay path: emitIteration() normally advances sim_cur_base_
     *  (the p_curr/p_next swap DROPLET's hint chases); when iterations
     *  replay from stored traces the swap must happen here instead. */
    void
    beginReplayIteration(unsigned iter) override
    {
        sim_cur_base_ = value_base_[iter & 1];
    }

    /** Scaled rank (rank/deg) of vertex @p v after the last iteration. */
    double rank(std::uint32_t v) const { return values_[cur_][v]; }
    /** Sum of |p_next - p_curr| over the last iteration. */
    double lastDiff() const { return last_diff_; }
    const Graph &inGraph() const { return in_graph_; }
    const Partitioning &partitioning() const { return parts_; }

  protected:
    void emit(unsigned iter, bool is_last) override;

  private:
    /** Access-site ids ("PCs") for the tracer. */
    enum Site : std::uint32_t {
        PcOffsets = 1,
        PcEdges,
        PcVertexValue, ///< the irregular p_curr[s] read
        PcNextStore,
        PcNormLoad,
        PcDegree,
        PcDiffLoad,
        PcCurrZero,
        PcNormStore,
    };

    Graph in_graph_;     ///< In-edge CSR (pull direction), relabelled.
    Graph out_graph_;    ///< Out-edge CSR for DROPLET's hint.
    Partitioning parts_;
    std::vector<std::uint32_t> degree_;
    double alpha_;

    Addr off_base_ = 0, edge_base_ = 0, deg_base_ = 0;
    Addr value_base_[2] = {0, 0}; ///< p_curr / p_next array bases.
    unsigned cur_ = 0;            ///< Which of the two is p_curr.
    /** p_curr base of the most recently emitted iteration — what the
     *  simulator (and DROPLET's base register) sees while running it. */
    Addr sim_cur_base_ = 0;

    std::vector<double> values_[2];
    double last_diff_ = 0.0;
};

} // namespace rnr

#endif // RNR_WORKLOADS_PAGERANK_H
