/**
 * @file
 * The last step of the CSR builders (Graph::fromEdgeList, relabel,
 * SparseMatrix::fromPattern): each of them buckets its ids by row with
 * a counting pass, so rows arrive unsorted and may repeat an id.  Rows
 * are short (average degree 4-24), so sorting each one costs
 * O(E log d) where one sort of the whole edge list cost O(E log E).
 */
#ifndef RNR_WORKLOADS_CSR_ROWS_H
#define RNR_WORKLOADS_CSR_ROWS_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace rnr {

/**
 * Sorts and dedupes every row of a bucketed CSR in place and packs the
 * rows to the front, so the arrays come out as the sorted, unique CSR
 * that one sort+unique of the (row, id) pairs would give.  On entry
 * @p offsets[v]..@p offsets[v+1] bound row v's bucket; on return they
 * bound the packed row and @p ids is shrunk to the packed length.
 * @p visit(v, begin, end) sees each row once it is packed.
 */
template <class Visit>
void
sortUniqueRows(std::vector<std::uint32_t> &offsets,
               std::vector<std::uint32_t> &ids, Visit &&visit)
{
    const auto rows = static_cast<std::uint32_t>(offsets.size() - 1);
    std::uint32_t out = 0;
    for (std::uint32_t v = 0; v < rows; ++v) {
        const auto first = ids.begin() + offsets[v];
        const auto bucket_end = ids.begin() + offsets[v + 1];
        std::sort(first, bucket_end);
        const auto last = std::unique(first, bucket_end);
        // Packing only ever moves a row left: out <= offsets[v].
        const std::uint32_t begin = out;
        if (out != offsets[v])
            std::move(first, last, ids.begin() + out);
        out += static_cast<std::uint32_t>(last - first);
        offsets[v] = begin;
        visit(v, begin, out);
    }
    offsets[rows] = out;
    ids.resize(out);
}

inline void
sortUniqueRows(std::vector<std::uint32_t> &offsets,
               std::vector<std::uint32_t> &ids)
{
    sortUniqueRows(offsets, ids,
                   [](std::uint32_t, std::uint32_t, std::uint32_t) {});
}

} // namespace rnr

#endif // RNR_WORKLOADS_CSR_ROWS_H
