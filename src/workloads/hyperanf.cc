#include "workloads/hyperanf.h"

#include <bit>

#include "sim/rng.h"

namespace rnr {

HyperAnfWorkload::HyperAnfWorkload(const Graph &graph, WorkloadOptions opts,
                                   std::uint64_t seed)
    : Workload(opts)
{
    // Flatten the CSR into an explicit (src, dst) edge list — the edge-
    // centric representation x-stream streams from disk/memory.
    edge_list_.reserve(graph.numEdges());
    for (std::uint32_t v = 0; v < graph.num_vertices; ++v) {
        for (std::uint32_t e = graph.offsets[v]; e < graph.offsets[v + 1];
             ++e)
            edge_list_.push_back({v, graph.edges[e]});
    }

    // FM sketch init: each vertex sets one geometrically distributed bit
    // (P(bit b) = 2^-(b+1)), representing its own id.
    Rng rng(seed);
    sketches_.resize(graph.num_vertices);
    for (auto &s : sketches_) {
        const unsigned b = std::countr_zero(rng.next64() | (1ull << 63));
        s = 1ull << std::min(b, 62u);
    }

    // Contiguous edge partitions per core (streaming partitions).
    edge_starts_.resize(opts_.cores + 1);
    for (unsigned c = 0; c <= opts_.cores; ++c)
        edge_starts_[c] = edge_list_.size() * c / opts_.cores;

    edge_base_ = space_.allocate("anf_edges",
                                 edge_list_.size() * sizeof(EdgePair));
    sketch_base_ = space_.allocate("anf_sketches",
                                   sketches_.size() *
                                       sizeof(std::uint64_t));
}

std::uint64_t
HyperAnfWorkload::inputBytes() const
{
    return edge_list_.size() * sizeof(EdgePair) +
           sketches_.size() * sizeof(std::uint64_t);
}

std::uint64_t
HyperAnfWorkload::targetBytes() const
{
    return sketches_.size() * sizeof(std::uint64_t);
}

DropletHint
HyperAnfWorkload::dropletHint(unsigned core) const
{
    DropletHint hint;
    const std::uint64_t e0 = edge_starts_[core];
    hint.edge_base = edge_base_ + e0 * sizeof(EdgePair);
    hint.edge_count = edge_starts_[core + 1] - e0;
    hint.edge_elem_bytes = sizeof(EdgePair);
    const Addr sketch_base = sketch_base_;
    const std::vector<EdgePair> *edges = &edge_list_;
    hint.target_of = [edges, sketch_base, e0](std::uint64_t e) {
        return sketch_base +
               (*edges)[e0 + e].dst * sizeof(std::uint64_t);
    };
    return hint;
}

double
HyperAnfWorkload::estimate(std::uint32_t v) const
{
    // FM estimate: 2^R / phi, R = index of the lowest zero bit.
    const unsigned r = std::countr_one(sketches_[v]);
    return static_cast<double>(1ull << std::min(r, 62u)) / 0.77351;
}

double
HyperAnfWorkload::neighbourhoodFunction() const
{
    double sum = 0.0;
    for (std::uint32_t v = 0;
         v < static_cast<std::uint32_t>(sketches_.size()); ++v)
        sum += estimate(v);
    return sum;
}

void
HyperAnfWorkload::emit(unsigned iter, bool is_last)
{

    for (unsigned c = 0; c < opts_.cores; ++c) {
        RnrRuntime &rt = *runtimes_[c];
        if (iter == 0) {
            rt.init(targetBytes());
            rt.addrBaseSet(sketch_base_,
                           sketches_.size() * sizeof(std::uint64_t));
            if (opts_.window_size)
                rt.windowSizeSet(opts_.window_size);
            rt.addrEnable(sketch_base_);
            rt.start();
        } else {
            rt.replay();
        }
    }

    std::uint64_t changed = 0;
    for (unsigned c = 0; c < opts_.cores; ++c) {
        Tracer &t = *tracers_[c];
        for (std::uint64_t e = edge_starts_[c]; e < edge_starts_[c + 1];
             ++e) {
            const EdgePair &pair = edge_list_[e];
            t.load(edge_base_ + e * sizeof(EdgePair), PcEdgePair);
            t.instr(3);
            t.load(sketch_base_ + pair.src * sizeof(std::uint64_t),
                   PcSketchSrc);
            t.instr(3);
            t.load(sketch_base_ + pair.dst * sizeof(std::uint64_t),
                   PcSketchDst);
            t.instr(4);
            const std::uint64_t merged =
                sketches_[pair.dst] | sketches_[pair.src];
            if (merged != sketches_[pair.dst]) {
                sketches_[pair.dst] = merged;
                ++changed;
            }
            t.store(sketch_base_ + pair.dst * sizeof(std::uint64_t),
                    PcSketchStore);
            t.instr(3);
        }
    }
    last_changed_ = changed;

    for (unsigned c = 0; c < opts_.cores; ++c) {
        RnrRuntime &rt = *runtimes_[c];
        if (is_last) {
            rt.endState();
            rt.end();
        }
    }
}

} // namespace rnr
