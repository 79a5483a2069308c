#include "workloads/spcg.h"

#include <cassert>

namespace rnr {

SpcgWorkload::SpcgWorkload(SparseMatrix matrix, WorkloadOptions opts)
    : Workload(opts), A_(std::move(matrix))
{
    const std::uint32_t n = A_.n;
    // Solve A x = b with b = A * ones (so x converges to ones).
    std::vector<double> ones(n, 1.0), b;
    A_.multiply(ones, b);

    x_.assign(n, 0.0);
    r_ = b;        // r = b - A*0
    p_ = r_;
    q_.assign(n, 0.0);
    rr_ = 0.0;
    for (double v : r_)
        rr_ += v * v;

    row_starts_.resize(opts_.cores + 1);
    for (unsigned c = 0; c <= opts_.cores; ++c)
        row_starts_[c] = static_cast<std::uint32_t>(
            std::uint64_t{n} * c / opts_.cores);

    rowptr_base_ = space_.allocate("cg_row_ptr",
                                   (n + 1) * sizeof(std::uint32_t));
    col_base_ = space_.allocate("cg_col",
                                A_.col.size() * sizeof(std::uint32_t));
    val_base_ = space_.allocate("cg_val",
                                A_.val.size() * sizeof(double));
    x_base_ = space_.allocate("cg_x", n * sizeof(double));
    r_base_ = space_.allocate("cg_r", n * sizeof(double));
    p_base_ = space_.allocate("cg_p", n * sizeof(double));
    q_base_ = space_.allocate("cg_q", n * sizeof(double));
}

std::uint64_t
SpcgWorkload::inputBytes() const
{
    return A_.bytes() + 4 * A_.n * sizeof(double);
}

std::uint64_t
SpcgWorkload::targetBytes() const
{
    return A_.n * sizeof(double);
}

IndexSniffer
SpcgWorkload::impSniffer(unsigned core) const
{
    // A[B[i]] with A = p and B = the CSR column array.
    IndexSniffer s;
    const std::uint32_t e0 = A_.row_ptr[row_starts_[core]];
    const std::uint32_t e1 = A_.row_ptr[row_starts_[core + 1]];
    s.index_base = col_base_ + e0 * sizeof(std::uint32_t);
    s.index_count = e1 - e0;
    s.index_elem_bytes = sizeof(std::uint32_t);
    s.value_of = [this, e0](std::uint64_t i) { return A_.col[e0 + i]; };
    return s;
}

void
SpcgWorkload::emit(unsigned iter, bool is_last)
{
    const std::uint32_t n = A_.n;

    for (unsigned c = 0; c < opts_.cores; ++c) {
        RnrRuntime &rt = *runtimes_[c];
        if (iter == 0) {
            rt.init(targetBytes());
            rt.addrBaseSet(p_base_, n * sizeof(double));
            if (opts_.window_size)
                rt.windowSizeSet(opts_.window_size);
            rt.addrEnable(p_base_);
            rt.start();
        } else {
            rt.replay();
        }
    }

    // ---- q = A * p (the traced SpMV kernel) ----
    double pq = 0.0;
    for (unsigned c = 0; c < opts_.cores; ++c) {
        Tracer &t = *tracers_[c];
        for (std::uint32_t i = row_starts_[c]; i < row_starts_[c + 1];
             ++i) {
            t.load(rowptr_base_ + i * sizeof(std::uint32_t), PcRowPtr);
            t.instr(4);
            double acc = 0.0;
            for (std::uint32_t e = A_.row_ptr[i]; e < A_.row_ptr[i + 1];
                 ++e) {
                t.load(col_base_ + e * sizeof(std::uint32_t), PcCol);
                t.load(val_base_ + e * sizeof(double), PcVal);
                t.instr(3);
                t.load(p_base_ + A_.col[e] * sizeof(double), PcPVec);
                t.instr(4);
                acc += A_.val[e] * p_[A_.col[e]];
            }
            q_[i] = acc;
            t.store(q_base_ + i * sizeof(double), PcQStore);
            t.instr(3);
        }
    }

    // ---- alpha = rr / (p . q) (streaming dot) ----
    for (unsigned c = 0; c < opts_.cores; ++c) {
        Tracer &t = *tracers_[c];
        for (std::uint32_t i = row_starts_[c]; i < row_starts_[c + 1];
             ++i) {
            t.load(p_base_ + i * sizeof(double), PcDotP);
            t.load(q_base_ + i * sizeof(double), PcDotQ);
            t.instr(3);
            pq += p_[i] * q_[i];
        }
    }
    const double alpha = pq != 0.0 ? rr_ / pq : 0.0;

    // ---- x += alpha p; r -= alpha q; rr' = r.r ----
    double rr_new = 0.0;
    for (unsigned c = 0; c < opts_.cores; ++c) {
        Tracer &t = *tracers_[c];
        for (std::uint32_t i = row_starts_[c]; i < row_starts_[c + 1];
             ++i) {
            t.load(x_base_ + i * sizeof(double), PcX);
            t.load(p_base_ + i * sizeof(double), PcDotP);
            t.store(x_base_ + i * sizeof(double), PcX);
            t.load(r_base_ + i * sizeof(double), PcR);
            t.load(q_base_ + i * sizeof(double), PcDotQ);
            t.store(r_base_ + i * sizeof(double), PcR);
            t.instr(8);
            x_[i] += alpha * p_[i];
            r_[i] -= alpha * q_[i];
            rr_new += r_[i] * r_[i];
        }
    }
    const double beta = rr_ != 0.0 ? rr_new / rr_ : 0.0;
    rr_ = rr_new;

    // ---- p = r + beta p ----
    for (unsigned c = 0; c < opts_.cores; ++c) {
        Tracer &t = *tracers_[c];
        for (std::uint32_t i = row_starts_[c]; i < row_starts_[c + 1];
             ++i) {
            t.load(r_base_ + i * sizeof(double), PcR);
            t.load(p_base_ + i * sizeof(double), PcPUpdate);
            t.store(p_base_ + i * sizeof(double), PcPUpdate);
            t.instr(3);
            p_[i] = r_[i] + beta * p_[i];
        }
    }

    for (unsigned c = 0; c < opts_.cores; ++c) {
        RnrRuntime &rt = *runtimes_[c];
        if (is_last) {
            rt.endState();
            rt.end();
        }
    }
}

} // namespace rnr
