/**
 * @file
 * Sparse conjugate-gradient solver (the paper's spCG, from the Adept
 * benchmark) with a traced SpMV kernel.
 *
 * Per CG iteration (rows partitioned contiguously across cores):
 *   q = A*p          — the SpMV kernel; p[col[e]] is the irregular RnR
 *                      target read, row_ptr/col/val stream;
 *   alpha = rr/p.q   — streaming dot product;
 *   x += alpha p; r -= alpha q;
 *   beta = rr'/rr; p = r + beta p.
 * The p vector lives at a fixed base across iterations (unlike
 * PageRank's swap), so the recorded sequence replays against the same
 * boundary register every time.  Real CG math runs alongside tracing, so
 * the solver genuinely converges on the SPD test matrices.
 */
#ifndef RNR_WORKLOADS_SPCG_H
#define RNR_WORKLOADS_SPCG_H

#include "workloads/sparse.h"
#include "workloads/workload.h"

namespace rnr {

class SpcgWorkload : public Workload
{
  public:
    SpcgWorkload(SparseMatrix matrix, WorkloadOptions opts);

    std::string name() const override { return "spcg"; }
    std::uint64_t inputBytes() const override;
    std::uint64_t targetBytes() const override;
    IndexSniffer impSniffer(unsigned core) const override;

    /** ||r||^2 after the last emitted iteration. */
    double residualNorm2() const { return rr_; }
    const std::vector<double> &solution() const { return x_; }
    const SparseMatrix &matrix() const { return A_; }

  protected:
    void emit(unsigned iter, bool is_last) override;

  private:
    enum Site : std::uint32_t {
        PcRowPtr = 201,
        PcCol,
        PcVal,
        PcPVec, ///< the irregular p[col[e]] read (target)
        PcQStore,
        PcDotP,
        PcDotQ,
        PcX,
        PcR,
        PcPUpdate,
    };

    SparseMatrix A_;
    std::vector<double> x_, r_, p_, q_;
    double rr_ = 0.0;
    std::vector<std::uint32_t> row_starts_; ///< per-core row ranges.

    Addr rowptr_base_ = 0, col_base_ = 0, val_base_ = 0;
    Addr x_base_ = 0, r_base_ = 0, p_base_ = 0, q_base_ = 0;
};

} // namespace rnr

#endif // RNR_WORKLOADS_SPCG_H
