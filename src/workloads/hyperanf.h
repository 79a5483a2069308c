/**
 * @file
 * Edge-centric Hyper-ANF (neighbourhood-function approximation) in the
 * x-stream style the paper evaluates.
 *
 * Every vertex carries a Flajolet-Martin sketch word (the HyperLogLog
 * ancestor used by the original ANF; union is a bitwise OR, which keeps
 * the traced kernel identical in shape to HyperANF's register-max merge
 * while staying one word per vertex — see DESIGN.md "Substitutions").
 * Each iteration streams the edge list (partitioned contiguously across
 * cores, as x-stream does) and merges hc[src] into hc[dst]; the two
 * sketch reads are the irregular RnR target.
 */
#ifndef RNR_WORKLOADS_HYPERANF_H
#define RNR_WORKLOADS_HYPERANF_H

#include "workloads/graph.h"
#include "workloads/workload.h"

namespace rnr {

class HyperAnfWorkload : public Workload
{
  public:
    HyperAnfWorkload(const Graph &graph, WorkloadOptions opts,
                     std::uint64_t seed = 42);

    std::string name() const override { return "hyperanf"; }
    std::uint64_t inputBytes() const override;
    std::uint64_t targetBytes() const override;
    DropletHint dropletHint(unsigned core) const override;

    /** Estimated neighbourhood size of @p v at the current radius. */
    double estimate(std::uint32_t v) const;
    /** Sum of estimates over all vertices (the neighbourhood function). */
    double neighbourhoodFunction() const;
    /** Sketches that changed during the last iteration. */
    std::uint64_t lastChanged() const { return last_changed_; }

  protected:
    void emit(unsigned iter, bool is_last) override;

  private:
    enum Site : std::uint32_t {
        PcEdgePair = 101, ///< streaming (src, dst) load
        PcSketchSrc,      ///< irregular hc[src] read (target)
        PcSketchDst,      ///< irregular hc[dst] read (target)
        PcSketchStore,
    };

    struct EdgePair {
        std::uint32_t src;
        std::uint32_t dst;
    };

    std::vector<EdgePair> edge_list_;
    std::vector<std::uint64_t> sketches_;
    std::vector<std::uint64_t> edge_starts_; ///< per-core edge ranges.

    Addr edge_base_ = 0;
    Addr sketch_base_ = 0;
    std::uint64_t last_changed_ = 0;
};

} // namespace rnr

#endif // RNR_WORKLOADS_HYPERANF_H
