#include "workloads/pagerank.h"

#include <cmath>

namespace rnr {

PageRankWorkload::PageRankWorkload(Graph graph, WorkloadOptions opts,
                                   double alpha)
    : Workload(opts), alpha_(alpha)
{
    // Partition on the undirected structure, then relabel so each core's
    // vertices are contiguous (the SPMD setup of Section VI).
    parts_ = partitionGraph(graph, opts.cores);
    Graph out = graph.relabel(parts_.order);
    in_graph_ = out.transpose();
    out_graph_ = std::move(out);
    degree_ = out_graph_.outDegrees();

    const std::uint32_t V = in_graph_.num_vertices;
    off_base_ = space_.allocate("pr_offsets",
                                (V + 1) * sizeof(std::uint32_t));
    edge_base_ = space_.allocate("pr_in_edges",
                                 in_graph_.edges.size() *
                                     sizeof(std::uint32_t));
    deg_base_ = space_.allocate("pr_degree", V * sizeof(std::uint32_t));
    value_base_[0] = space_.allocate("pr_pcurr", V * sizeof(double));
    value_base_[1] = space_.allocate("pr_pnext", V * sizeof(double));

    // p_curr starts at (1/|V|)/deg (scaled ranks); p_next at zero.
    values_[0].assign(V, 0.0);
    values_[1].assign(V, 0.0);
    for (std::uint32_t v = 0; v < V; ++v) {
        values_[0][v] = (1.0 / V) / std::max(1u, degree_[v]);
    }
}

std::uint64_t
PageRankWorkload::inputBytes() const
{
    return in_graph_.bytes() +
           degree_.size() * sizeof(std::uint32_t) +
           2 * values_[0].size() * sizeof(double);
}

std::uint64_t
PageRankWorkload::targetBytes() const
{
    return values_[0].size() * sizeof(double);
}

DropletHint
PageRankWorkload::dropletHint(unsigned core) const
{
    DropletHint hint;
    const std::uint32_t first = parts_.starts[core];
    const std::uint32_t j0 = in_graph_.offsets[first];
    const std::uint32_t j1 = in_graph_.offsets[parts_.starts[core + 1]];
    hint.edge_base = edge_base_ + j0 * sizeof(std::uint32_t);
    hint.edge_count = j1 - j0;
    hint.edge_elem_bytes = sizeof(std::uint32_t);
    // Capture `this` so the hint tracks the p_curr/p_next swap: the
    // hardware dereferences into whichever array the iteration being
    // simulated reads (the software updates DROPLET's base register at
    // the same point it swaps RnR's boundary enables).
    hint.target_of = [this, j0](std::uint64_t e) {
        return sim_cur_base_ + in_graph_.edges[j0 + e] * sizeof(double);
    };
    return hint;
}

IndexSniffer
PageRankWorkload::impSniffer(unsigned core) const
{
    // A[B[i]] with A = p_curr (8 B elements) and B = the in-edge array.
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

void
PageRankWorkload::emit(unsigned iter, bool is_last)
{
    const std::uint32_t V = in_graph_.num_vertices;
    const Addr cur_base = value_base_[cur_];
    const Addr next_base = value_base_[cur_ ^ 1];
    sim_cur_base_ = cur_base;
    std::vector<double> &pcurr = values_[cur_];
    std::vector<double> &pnext = values_[cur_ ^ 1];

    for (unsigned c = 0; c < opts_.cores; ++c) {
        RnrRuntime &rt = *runtimes_[c];
        if (iter == 0) {
            rt.init(targetBytes());
            rt.addrBaseSet(value_base_[0], V * sizeof(double));
            rt.addrBaseSet(value_base_[1], V * sizeof(double));
            if (opts_.window_size)
                rt.windowSizeSet(opts_.window_size);
            rt.addrEnable(cur_base);
            rt.start();
        } else {
            rt.replay();
        }
    }

    double diff = 0.0;
    for (unsigned c = 0; c < opts_.cores; ++c) {
        Tracer &t = *tracers_[c];
        const std::uint32_t d0 = parts_.starts[c];
        const std::uint32_t d1 = parts_.starts[c + 1];

        // ---- Edge (PRUpdate) phase ----
        for (std::uint32_t d = d0; d < d1; ++d) {
            t.load(off_base_ + d * sizeof(std::uint32_t), PcOffsets);
            t.instr(4);
            double acc = 0.0;
            for (std::uint32_t j = in_graph_.offsets[d];
                 j < in_graph_.offsets[d + 1]; ++j) {
                t.load(edge_base_ + j * sizeof(std::uint32_t), PcEdges);
                t.instr(3);
                const std::uint32_t s = in_graph_.edges[j];
                t.load(cur_base + s * sizeof(double), PcVertexValue);
                t.instr(4);
                acc += pcurr[s];
            }
            pnext[d] += acc;
            t.store(next_base + d * sizeof(double), PcNextStore);
            t.instr(3);
        }

        // ---- Normalise (PRNormalize) phase ----
        for (std::uint32_t v = d0; v < d1; ++v) {
            t.load(next_base + v * sizeof(double), PcNormLoad);
            t.load(deg_base_ + v * sizeof(std::uint32_t), PcDegree);
            t.instr(8);
            const double scaled =
                (alpha_ * pnext[v] + (1.0 - alpha_) / V) /
                std::max(1u, degree_[v]);
            t.load(cur_base + v * sizeof(double), PcDiffLoad);
            t.instr(4);
            diff += std::fabs(scaled - pcurr[v]);
            pcurr[v] = 0.0;
            t.store(cur_base + v * sizeof(double), PcCurrZero);
            pnext[v] = scaled;
            t.store(next_base + v * sizeof(double), PcNormStore);
            t.instr(2);
        }
    }
    last_diff_ = diff;

    // ---- Iteration epilogue: Algorithm 1 lines 31-36 ----
    for (unsigned c = 0; c < opts_.cores; ++c) {
        RnrRuntime &rt = *runtimes_[c];
        if (is_last) {
            rt.endState();
            rt.end();
        } else {
            rt.addrDisable(cur_base);
            rt.addrEnable(next_base);
        }
    }
    cur_ ^= 1;
}

} // namespace rnr
