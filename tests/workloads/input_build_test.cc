/**
 * @file
 * Pins every built input byte for byte.
 *
 * The digest table holds FNV-1a64 digests of the CSR arrays of the
 * eight Table III inputs, of each graph's partition relabel and its
 * transpose (what PageRank and LabelProp build), and of the held-out
 * generator seeds perfbench uses (1011/1012/1013).  They were captured
 * from the sort-based builders, so a faster builder must reproduce
 * their output exactly.  The differential tests then check the
 * builders against the sort+unique reference kept in this file on
 * fixed-seed random lists and on the edge cases (duplicates, empty
 * rows, n = 1, ids at n - 1, diagonal pattern entries, empty lists).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/serde.h"
#include "sim/rng.h"
#include "workloads/graph.h"
#include "workloads/graph_gen.h"
#include "workloads/partition.h"
#include "workloads/sparse.h"
#include "workloads/sparse_gen.h"

namespace rnr {
namespace {

using EdgeList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

template <class T>
std::uint64_t
mix(const std::vector<T> &v, std::uint64_t h)
{
    return ckpt::fnv1a64(v.data(), v.size() * sizeof(T), h);
}

std::uint64_t
digest(const Graph &g)
{
    std::uint64_t h = ckpt::fnv1a64(&g.num_vertices, sizeof g.num_vertices);
    h = mix(g.offsets, h);
    return mix(g.edges, h);
}

std::uint64_t
digest(const SparseMatrix &m)
{
    std::uint64_t h = ckpt::fnv1a64(&m.n, sizeof m.n);
    h = mix(m.row_ptr, h);
    h = mix(m.col, h);
    return mix(m.val, h);
}

// ---- digests of the built inputs ------------------------------------

struct GraphPin {
    const char *name;
    std::uint64_t graph;     ///< the generated CSR
    std::uint64_t relabeled; ///< relabel(partitionGraph(g, 4).order)
    std::uint64_t in_graph;  ///< ... .transpose()
};

Graph
buildGraph(const std::string &name)
{
    // The held-out shapes are perfbench's `gen` parameters: the Table
    // III generators with seed 1000 * 1 + the input's own seed.
    if (name == "urand@1011")
        return makeUrandGraph(1u << 16, 16, 1011);
    if (name == "amazon@1012")
        return makeCommunityGraph(1u << 16, 6, 64, 0.75, 1012);
    if (name == "com-orkut@1013")
        return makeCommunityGraph(1u << 16, 24, 256, 0.55, 1013);
    return makeGraphInput(name).graph;
}

const GraphPin kGraphPins[] = {
    {"urand", 0xa697e9759ee7a4ceull, 0x3a89667ae6cafba1ull,
     0x7c91cee6e0e1af15ull},
    {"amazon", 0x77ce4fff19900e45ull, 0x24ffd375091bb823ull,
     0xa845db227bf01dbcull},
    {"com-orkut", 0x789daa38e83b3591ull, 0x98c009c3acfe6631ull,
     0x68c983c48d5d52beull},
    {"roadUSA", 0xc7e84f33238d547aull, 0x4919fca5266f9539ull,
     0x4919fca5266f9539ull},
    {"urand@1011", 0xf6422ce2745196b9ull, 0x12d66a2679d5fb51ull,
     0x070ce74ade168675ull},
    {"amazon@1012", 0x4c8c806183de048aull, 0xc10f350cef976f36ull,
     0xad1a1282365c8816ull},
    {"com-orkut@1013", 0xf038d49816d7a050ull, 0x601b0dad35db139cull,
     0x7a341474d0537470ull},
};

struct MatrixPin {
    const char *name;
    std::uint64_t matrix;
};

const MatrixPin kMatrixPins[] = {
    {"atmosmodj", 0xb7981f041e57db82ull},
    {"bbmat", 0x2189823272f3641aull},
    {"nlpkkt80", 0xec91ca2cdbc25105ull},
    {"pdb1HYS", 0xedc8a10a15e93ad8ull},
};

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llxull",
                  static_cast<unsigned long long>(v));
    return buf;
}

TEST(InputBuildTest, GraphInputsMatchPinnedDigests)
{
    for (const GraphPin &pin : kGraphPins) {
        const Graph g = buildGraph(pin.name);
        const Graph r = g.relabel(partitionGraph(g, 4).order);
        const Graph t = r.transpose();
        EXPECT_EQ(hex(digest(g)), hex(pin.graph)) << pin.name;
        EXPECT_EQ(hex(digest(r)), hex(pin.relabeled))
            << pin.name << " relabel";
        EXPECT_EQ(hex(digest(t)), hex(pin.in_graph))
            << pin.name << " transpose";
    }
}

TEST(InputBuildTest, MatrixInputsMatchPinnedDigests)
{
    for (const MatrixPin &pin : kMatrixPins)
        EXPECT_EQ(hex(digest(makeMatrixInput(pin.name).matrix)),
                  hex(pin.matrix))
            << pin.name;
}

// ---- sort+unique references -----------------------------------------

Graph
refFromEdgeList(std::uint32_t n, EdgeList list)
{
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    Graph g;
    g.num_vertices = n;
    g.offsets.assign(n + 1, 0);
    for (const auto &[src, dst] : list) {
        (void)dst;
        ++g.offsets[src + 1];
    }
    for (std::uint32_t v = 0; v < n; ++v)
        g.offsets[v + 1] += g.offsets[v];
    for (const auto &[src, dst] : list) {
        (void)src;
        g.edges.push_back(dst);
    }
    return g;
}

Graph
refRelabel(const Graph &g, const std::vector<std::uint32_t> &order)
{
    std::vector<std::uint32_t> new_id(g.num_vertices);
    for (std::uint32_t i = 0; i < g.num_vertices; ++i)
        new_id[order[i]] = i;
    EdgeList list;
    for (std::uint32_t v = 0; v < g.num_vertices; ++v)
        for (std::uint32_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e)
            list.emplace_back(new_id[v], new_id[g.edges[e]]);
    return refFromEdgeList(g.num_vertices, std::move(list));
}

SparseMatrix
refFromPattern(std::uint32_t n, const EdgeList &entries)
{
    EdgeList sym;
    for (auto [i, j] : entries) {
        if (i == j)
            continue;
        sym.emplace_back(i, j);
        sym.emplace_back(j, i);
    }
    for (std::uint32_t i = 0; i < n; ++i)
        sym.emplace_back(i, i);
    std::sort(sym.begin(), sym.end());
    sym.erase(std::unique(sym.begin(), sym.end()), sym.end());

    SparseMatrix m;
    m.n = n;
    m.row_ptr.assign(n + 1, 0);
    for (auto [i, j] : sym) {
        (void)j;
        ++m.row_ptr[i + 1];
    }
    for (std::uint32_t i = 0; i < n; ++i)
        m.row_ptr[i + 1] += m.row_ptr[i];
    for (auto [i, j] : sym) {
        m.col.push_back(j);
        // Off-diagonal -1; the diagonal counts its row's off-diagonals.
        m.val.push_back(i == j ? m.row_ptr[i + 1] - m.row_ptr[i]
                               : -1.0);
    }
    return m;
}

void
expectSame(const Graph &got, const Graph &want, const std::string &what)
{
    EXPECT_EQ(got.num_vertices, want.num_vertices) << what;
    EXPECT_EQ(got.offsets, want.offsets) << what;
    EXPECT_EQ(got.edges, want.edges) << what;
}

void
expectSame(const SparseMatrix &got, const SparseMatrix &want,
           const std::string &what)
{
    EXPECT_EQ(got.n, want.n) << what;
    EXPECT_EQ(got.row_ptr, want.row_ptr) << what;
    EXPECT_EQ(got.col, want.col) << what;
    EXPECT_EQ(got.val, want.val) << what;
}

/** Random ids skewed to the ends, so ids 0 and n - 1 and repeats show
 *  up often. */
std::uint32_t
pickId(Rng &rng, std::uint32_t n)
{
    const std::uint64_t r = rng.below(8);
    if (r == 0)
        return 0;
    if (r == 1)
        return n - 1;
    return static_cast<std::uint32_t>(rng.below(n));
}

EdgeList
randomList(Rng &rng, std::uint32_t n, std::uint64_t count)
{
    EdgeList list;
    for (std::uint64_t k = 0; k < count; ++k) {
        list.emplace_back(pickId(rng, n), pickId(rng, n));
        if (rng.below(4) == 0) // an exact duplicate
            list.push_back(list.back());
    }
    return list;
}

std::vector<std::uint32_t>
randomOrder(Rng &rng, std::uint32_t n)
{
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t i = 0; i < n; ++i)
        order[i] = i;
    for (std::uint32_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

void
checkAll(std::uint32_t n, const EdgeList &list, Rng &rng,
         const std::string &what)
{
    const Graph g = Graph::fromEdgeList(n, list);
    expectSame(g, refFromEdgeList(n, list), what + " fromEdgeList");
    const std::vector<std::uint32_t> order = randomOrder(rng, n);
    expectSame(g.relabel(order), refRelabel(g, order), what + " relabel");
    expectSame(SparseMatrix::fromPattern(n, list), refFromPattern(n, list),
               what + " fromPattern");
}

TEST(InputBuildTest, BuildersMatchSortReferenceOnEdgeCases)
{
    Rng rng(7);
    checkAll(0, {}, rng, "n=0 empty");
    checkAll(1, {}, rng, "n=1 empty");
    checkAll(1, {{0, 0}, {0, 0}}, rng, "n=1 self-loop");
    checkAll(5, {}, rng, "n=5 empty");
    // Every row but the last is empty; the ids sit at n - 1.
    checkAll(5, {{4, 4}, {4, 0}, {4, 4}, {4, 0}}, rng, "last row only");
    // Diagonal and mirrored entries of the same pair, listed both ways.
    checkAll(4, {{1, 2}, {2, 1}, {2, 2}, {3, 0}, {0, 3}, {0, 0}, {1, 2}},
             rng, "mirrors");
    // Descending input order.
    checkAll(6, {{5, 4}, {5, 3}, {4, 1}, {3, 0}, {2, 5}, {0, 1}}, rng,
             "descending");
}

TEST(InputBuildTest, BuildersMatchSortReferenceOnRandomLists)
{
    Rng rng(2024);
    for (int round = 0; round < 200; ++round) {
        const auto n = static_cast<std::uint32_t>(1 + rng.below(64));
        const std::uint64_t count = rng.below(4 * n + 1);
        checkAll(n, randomList(rng, n, count), rng,
                 "round " + std::to_string(round));
    }
}

} // namespace
} // namespace rnr
