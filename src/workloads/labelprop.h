/**
 * @file
 * Label-propagation connected components / community detection — one of
 * the repeating-irregular applications the paper's introduction
 * motivates (graph clustering via parallel label propagation [31]).
 *
 * Min-label propagation: every vertex repeatedly adopts the minimum
 * label among itself and its in-neighbours, converging to per-component
 * minima.  The per-iteration access sequence over the label array is
 * irregular (indexed by the edge array) and identical every iteration —
 * the RnR sweet spot — and the label array lives at one fixed base
 * (no p_curr/p_next swap), covering the in-place update variant of the
 * programming interface.
 */
#ifndef RNR_WORKLOADS_LABELPROP_H
#define RNR_WORKLOADS_LABELPROP_H

#include "workloads/graph.h"
#include "workloads/partition.h"
#include "workloads/workload.h"

namespace rnr {

class LabelPropWorkload : public Workload
{
  public:
    LabelPropWorkload(Graph graph, WorkloadOptions opts);

    std::string name() const override { return "labelprop"; }
    std::uint64_t inputBytes() const override;
    std::uint64_t targetBytes() const override;
    DropletHint dropletHint(unsigned core) const override;
    IndexSniffer impSniffer(unsigned core) const override;

    std::uint32_t label(std::uint32_t v) const { return labels_[v]; }
    /** Labels changed during the last iteration (0 = converged). */
    std::uint64_t lastChanged() const { return last_changed_; }
    /** Number of distinct labels (components) currently present. */
    std::uint64_t distinctLabels() const;
    const Graph &inGraph() const { return in_graph_; }

  protected:
    void emit(unsigned iter, bool is_last) override;

  private:
    enum Site : std::uint32_t {
        PcOffsets = 301,
        PcEdges,
        PcLabelRead, ///< irregular labels[s] (the RnR target)
        PcLabelSelf,
        PcLabelStore,
    };

    Graph in_graph_;
    Partitioning parts_;
    std::vector<std::uint32_t> labels_;
    std::uint64_t last_changed_ = 0;

    Addr off_base_ = 0, edge_base_ = 0, label_base_ = 0;
};

} // namespace rnr

#endif // RNR_WORKLOADS_LABELPROP_H
