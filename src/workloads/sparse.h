/**
 * @file
 * Compressed-sparse-row matrix container for the spCG workload.
 */
#ifndef RNR_WORKLOADS_SPARSE_H
#define RNR_WORKLOADS_SPARSE_H

#include <cstdint>
#include <utility>
#include <vector>

namespace rnr {

/** Square sparse matrix in CSR form. */
struct SparseMatrix {
    std::uint32_t n = 0;
    std::vector<std::uint32_t> row_ptr; ///< size n+1.
    std::vector<std::uint32_t> col;
    std::vector<double> val;

    std::uint64_t nnz() const { return col.size(); }

    /**
     * Builds a symmetric positive-definite CSR matrix from a structural
     * pattern: the given off-diagonal entries (i, j) are mirrored, given
     * small negative values, and the diagonal is set to dominate
     * (Laplacian-style), which guarantees SPD so CG converges.
     */
    static SparseMatrix fromPattern(
        std::uint32_t n,
        std::vector<std::pair<std::uint32_t, std::uint32_t>> entries);

    /** y = A * x (host-side math used alongside the traced kernel). */
    void multiply(const std::vector<double> &x,
                  std::vector<double> &y) const;

    /** Bytes of the CSR arrays. */
    std::uint64_t bytes() const;
};

} // namespace rnr

#endif // RNR_WORKLOADS_SPARSE_H
