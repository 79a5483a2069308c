/**
 * @file
 * Compressed-sparse-row graph container used by the graph workloads
 * (PageRank, Hyper-ANF) and the partitioner.
 */
#ifndef RNR_WORKLOADS_GRAPH_H
#define RNR_WORKLOADS_GRAPH_H

#include <cstdint>
#include <utility>
#include <vector>

namespace rnr {

/** Directed graph in CSR form (out-edges). */
struct Graph {
    std::uint32_t num_vertices = 0;
    /** offsets[v]..offsets[v+1] index into edges; size V+1. */
    std::vector<std::uint32_t> offsets;
    /** Edge targets, sorted per source. */
    std::vector<std::uint32_t> edges;

    std::uint64_t numEdges() const { return edges.size(); }

    std::uint32_t
    degree(std::uint32_t v) const
    {
        return offsets[v + 1] - offsets[v];
    }

    /** Builds a CSR graph from an edge list (duplicates removed). */
    static Graph fromEdgeList(
        std::uint32_t num_vertices,
        std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_list);

    /** Reverses every edge (out-CSR -> in-CSR for pull algorithms). */
    Graph transpose() const;

    /** Out-degree of every vertex (PageRank contributions). */
    std::vector<std::uint32_t> outDegrees() const;

    /**
     * Relabels vertices so that @p order[i] becomes vertex i; used after
     * partitioning to make each partition's vertices contiguous.
     */
    Graph relabel(const std::vector<std::uint32_t> &order) const;

    /** Bytes of the CSR arrays (Fig 13 storage-overhead denominator). */
    std::uint64_t bytes() const;
};

} // namespace rnr

#endif // RNR_WORKLOADS_GRAPH_H
