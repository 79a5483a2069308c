#include "workloads/graph.h"

#include <cassert>

#include "workloads/csr_rows.h"

namespace rnr {

Graph
Graph::fromEdgeList(
    std::uint32_t num_vertices,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edge_list)
{
    // Bucket each dst into its source's row, then sort and dedupe the
    // rows: O(E log d) instead of sorting the whole list.
    Graph g;
    g.num_vertices = num_vertices;
    g.offsets.assign(num_vertices + 1, 0);
    for (const auto &[src, dst] : edge_list) {
        assert(src < num_vertices && dst < num_vertices);
        (void)dst;
        ++g.offsets[src + 1];
    }
    for (std::uint32_t v = 0; v < num_vertices; ++v)
        g.offsets[v + 1] += g.offsets[v];
    g.edges.resize(edge_list.size());
    std::vector<std::uint32_t> cursor(g.offsets.begin(),
                                      g.offsets.end() - 1);
    for (const auto &[src, dst] : edge_list)
        g.edges[cursor[src]++] = dst;
    sortUniqueRows(g.offsets, g.edges);
    return g;
}

Graph
Graph::transpose() const
{
    Graph t;
    t.num_vertices = num_vertices;
    t.offsets.assign(num_vertices + 1, 0);
    for (std::uint32_t dst : edges)
        ++t.offsets[dst + 1];
    for (std::uint32_t v = 0; v < num_vertices; ++v)
        t.offsets[v + 1] += t.offsets[v];
    t.edges.resize(edges.size());
    std::vector<std::uint32_t> cursor(t.offsets.begin(),
                                      t.offsets.end() - 1);
    for (std::uint32_t src = 0; src < num_vertices; ++src) {
        for (std::uint32_t e = offsets[src]; e < offsets[src + 1]; ++e)
            t.edges[cursor[edges[e]]++] = src;
    }
    return t;
}

std::vector<std::uint32_t>
Graph::outDegrees() const
{
    std::vector<std::uint32_t> deg(num_vertices);
    for (std::uint32_t v = 0; v < num_vertices; ++v)
        deg[v] = degree(v);
    return deg;
}

Graph
Graph::relabel(const std::vector<std::uint32_t> &order) const
{
    assert(order.size() == num_vertices);
    // order[i] = old id that becomes new id i; build the inverse map.
    std::vector<std::uint32_t> new_id(num_vertices);
    for (std::uint32_t i = 0; i < num_vertices; ++i)
        new_id[order[i]] = i;

    // New row i is the new_id image of old row order[i], sorted.
    Graph g;
    g.num_vertices = num_vertices;
    g.offsets.assign(num_vertices + 1, 0);
    for (std::uint32_t i = 0; i < num_vertices; ++i)
        g.offsets[i + 1] = g.offsets[i] + degree(order[i]);
    g.edges.resize(edges.size());
    for (std::uint32_t i = 0; i < num_vertices; ++i) {
        std::uint32_t out = g.offsets[i];
        for (std::uint32_t e = offsets[order[i]]; e < offsets[order[i] + 1];
             ++e)
            g.edges[out++] = new_id[edges[e]];
    }
    sortUniqueRows(g.offsets, g.edges);
    return g;
}

std::uint64_t
Graph::bytes() const
{
    return offsets.size() * sizeof(std::uint32_t) +
           edges.size() * sizeof(std::uint32_t);
}

} // namespace rnr
