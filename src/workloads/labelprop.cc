#include "workloads/labelprop.h"

#include <unordered_set>

namespace rnr {

LabelPropWorkload::LabelPropWorkload(Graph graph, WorkloadOptions opts)
    : Workload(opts)
{
    parts_ = partitionGraph(graph, opts.cores);
    in_graph_ = graph.relabel(parts_.order).transpose();

    const std::uint32_t V = in_graph_.num_vertices;
    labels_.resize(V);
    for (std::uint32_t v = 0; v < V; ++v)
        labels_[v] = v;

    off_base_ = space_.allocate("lp_offsets",
                                (V + 1) * sizeof(std::uint32_t));
    edge_base_ = space_.allocate("lp_in_edges",
                                 in_graph_.edges.size() *
                                     sizeof(std::uint32_t));
    label_base_ = space_.allocate("lp_labels",
                                  V * sizeof(std::uint32_t));
}

std::uint64_t
LabelPropWorkload::inputBytes() const
{
    return in_graph_.bytes() + labels_.size() * sizeof(std::uint32_t);
}

std::uint64_t
LabelPropWorkload::targetBytes() const
{
    return labels_.size() * sizeof(std::uint32_t);
}

DropletHint
LabelPropWorkload::dropletHint(unsigned core) const
{
    DropletHint hint;
    const std::uint32_t j0 = in_graph_.offsets[parts_.starts[core]];
    const std::uint32_t j1 = in_graph_.offsets[parts_.starts[core + 1]];
    hint.edge_base = edge_base_ + j0 * sizeof(std::uint32_t);
    hint.edge_count = j1 - j0;
    hint.edge_elem_bytes = sizeof(std::uint32_t);
    hint.target_of = [this, j0](std::uint64_t e) {
        return label_base_ +
               in_graph_.edges[j0 + e] * sizeof(std::uint32_t);
    };
    return hint;
}

IndexSniffer
LabelPropWorkload::impSniffer(unsigned core) const
{
    // A[B[i]] with A = labels (4 B elements) and B = the in-edge array.
    IndexSniffer s;
    const std::uint32_t j0 = in_graph_.offsets[parts_.starts[core]];
    const std::uint32_t j1 = in_graph_.offsets[parts_.starts[core + 1]];
    s.index_base = edge_base_ + j0 * sizeof(std::uint32_t);
    s.index_count = j1 - j0;
    s.index_elem_bytes = sizeof(std::uint32_t);
    s.value_of = [this, j0](std::uint64_t i) {
        return in_graph_.edges[j0 + i];
    };
    return s;
}

std::uint64_t
LabelPropWorkload::distinctLabels() const
{
    std::unordered_set<std::uint32_t> distinct(labels_.begin(),
                                               labels_.end());
    return distinct.size();
}

void
LabelPropWorkload::emit(unsigned iter, bool is_last)
{

    for (unsigned c = 0; c < opts_.cores; ++c) {
        RnrRuntime &rt = *runtimes_[c];
        if (iter == 0) {
            rt.init(targetBytes());
            rt.addrBaseSet(label_base_,
                           labels_.size() * sizeof(std::uint32_t));
            if (opts_.window_size)
                rt.windowSizeSet(opts_.window_size);
            rt.addrEnable(label_base_);
            rt.start();
        } else {
            rt.replay();
        }
    }

    std::uint64_t changed = 0;
    for (unsigned c = 0; c < opts_.cores; ++c) {
        Tracer &t = *tracers_[c];
        for (std::uint32_t d = parts_.starts[c];
             d < parts_.starts[c + 1]; ++d) {
            t.load(off_base_ + d * sizeof(std::uint32_t), PcOffsets);
            t.instr(3);
            t.load(label_base_ + d * sizeof(std::uint32_t), PcLabelSelf);
            t.instr(2);
            std::uint32_t best = labels_[d];
            for (std::uint32_t j = in_graph_.offsets[d];
                 j < in_graph_.offsets[d + 1]; ++j) {
                t.load(edge_base_ + j * sizeof(std::uint32_t), PcEdges);
                t.instr(2);
                const std::uint32_t s = in_graph_.edges[j];
                t.load(label_base_ + s * sizeof(std::uint32_t),
                       PcLabelRead);
                t.instr(3);
                best = std::min(best, labels_[s]);
            }
            if (best != labels_[d]) {
                labels_[d] = best;
                ++changed;
            }
            t.store(label_base_ + d * sizeof(std::uint32_t),
                    PcLabelStore);
            t.instr(2);
        }
    }
    last_changed_ = changed;

    for (unsigned c = 0; c < opts_.cores; ++c) {
        if (is_last) {
            runtimes_[c]->endState();
            runtimes_[c]->end();
        }
    }
}

} // namespace rnr
