/**
 * @file
 * Jacobi iterative solver — the second iterative-solver family the
 * paper's introduction motivates.
 *
 *   x_next[i] = (b[i] - sum_{j != i} A_ij * x_curr[j]) / A_ii
 *
 * Unlike spCG's fixed-base p vector, Jacobi swaps x_curr/x_next every
 * iteration, so this workload exercises the same AddrBase enable/
 * disable swap protocol as Algorithm 1's PageRank, but in the sparse-
 * matrix domain.  Converges for the diagonally dominant matrices the
 * generators produce.
 */
#ifndef RNR_WORKLOADS_JACOBI_H
#define RNR_WORKLOADS_JACOBI_H

#include "workloads/sparse.h"
#include "workloads/workload.h"

namespace rnr {

class JacobiWorkload : public Workload
{
  public:
    JacobiWorkload(SparseMatrix matrix, WorkloadOptions opts);

    std::string name() const override { return "jacobi"; }
    std::uint64_t inputBytes() const override;
    std::uint64_t targetBytes() const override;
    IndexSniffer impSniffer(unsigned core) const override;

    /** Max-norm of x_next - x_curr over the last iteration. */
    double lastDelta() const { return last_delta_; }
    const std::vector<double> &solution() const { return x_[cur_]; }
    const SparseMatrix &matrix() const { return A_; }

  protected:
    void emit(unsigned iter, bool is_last) override;

  private:
    enum Site : std::uint32_t {
        PcRowPtr = 401,
        PcCol,
        PcVal,
        PcXRead, ///< irregular x_curr[col[e]] (the RnR target)
        PcB,
        PcXStore,
    };

    SparseMatrix A_;
    std::vector<double> diag_;
    std::vector<double> b_;
    std::vector<double> x_[2];
    unsigned cur_ = 0;
    double last_delta_ = 0.0;
    std::vector<std::uint32_t> row_starts_;

    Addr rowptr_base_ = 0, col_base_ = 0, val_base_ = 0, b_base_ = 0;
    Addr x_base_[2] = {0, 0};
};

} // namespace rnr

#endif // RNR_WORKLOADS_JACOBI_H
