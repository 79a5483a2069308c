#include "workloads/sparse.h"

#include <cassert>

#include "workloads/csr_rows.h"

namespace rnr {

SparseMatrix
SparseMatrix::fromPattern(
    std::uint32_t n,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> entries)
{
    // Bucket both mirrors of every off-diagonal entry by row (given
    // diagonal entries are dropped), plus one diagonal slot per row;
    // then sort and dedupe the rows.
    SparseMatrix m;
    m.n = n;
    m.row_ptr.assign(n + 1, 0);
    for (auto [i, j] : entries) {
        assert(i < n && j < n);
        if (i == j)
            continue;
        ++m.row_ptr[i + 1];
        ++m.row_ptr[j + 1];
    }
    for (std::uint32_t i = 0; i < n; ++i)
        m.row_ptr[i + 1] += m.row_ptr[i] + 1;

    m.col.resize(m.row_ptr[n]);
    std::vector<std::uint32_t> cursor(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        m.col[m.row_ptr[i]] = i;
        cursor[i] = m.row_ptr[i] + 1;
    }
    for (auto [i, j] : entries) {
        if (i == j)
            continue;
        m.col[cursor[i]++] = j;
        m.col[cursor[j]++] = i;
    }

    // Off-diagonals are -1; diagonal dominance sets d_ii to the
    // off-diagonal count + 1, i.e. the row's length.
    m.val.resize(m.col.size());
    sortUniqueRows(m.row_ptr, m.col,
                   [&m](std::uint32_t i, std::uint32_t begin,
                        std::uint32_t end) {
                       for (std::uint32_t e = begin; e < end; ++e)
                           m.val[e] = m.col[e] == i ? end - begin : -1.0;
                   });
    m.val.resize(m.col.size());
    return m;
}

void
SparseMatrix::multiply(const std::vector<double> &x,
                       std::vector<double> &y) const
{
    assert(x.size() == n);
    y.assign(n, 0.0);
    for (std::uint32_t i = 0; i < n; ++i) {
        double acc = 0.0;
        for (std::uint32_t e = row_ptr[i]; e < row_ptr[i + 1]; ++e)
            acc += val[e] * x[col[e]];
        y[i] = acc;
    }
}

std::uint64_t
SparseMatrix::bytes() const
{
    return row_ptr.size() * sizeof(std::uint32_t) +
           col.size() * sizeof(std::uint32_t) +
           val.size() * sizeof(double);
}

} // namespace rnr
