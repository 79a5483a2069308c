#include "workloads/jacobi.h"

#include <cmath>

namespace rnr {

JacobiWorkload::JacobiWorkload(SparseMatrix matrix, WorkloadOptions opts)
    : Workload(opts), A_(std::move(matrix))
{
    const std::uint32_t n = A_.n;
    diag_.assign(n, 1.0);
    for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t e = A_.row_ptr[i]; e < A_.row_ptr[i + 1]; ++e) {
            if (A_.col[e] == i)
                diag_[i] = A_.val[e];
        }
    }
    // b = A * ones, so x converges to all-ones.
    std::vector<double> ones(n, 1.0);
    A_.multiply(ones, b_);

    x_[0].assign(n, 0.0);
    x_[1].assign(n, 0.0);

    row_starts_.resize(opts_.cores + 1);
    for (unsigned c = 0; c <= opts_.cores; ++c)
        row_starts_[c] = static_cast<std::uint32_t>(
            std::uint64_t{n} * c / opts_.cores);

    rowptr_base_ = space_.allocate("jb_row_ptr",
                                   (n + 1) * sizeof(std::uint32_t));
    col_base_ = space_.allocate("jb_col",
                                A_.col.size() * sizeof(std::uint32_t));
    val_base_ = space_.allocate("jb_val",
                                A_.val.size() * sizeof(double));
    b_base_ = space_.allocate("jb_b", n * sizeof(double));
    x_base_[0] = space_.allocate("jb_x0", n * sizeof(double));
    x_base_[1] = space_.allocate("jb_x1", n * sizeof(double));
}

std::uint64_t
JacobiWorkload::inputBytes() const
{
    return A_.bytes() + 3 * A_.n * sizeof(double);
}

std::uint64_t
JacobiWorkload::targetBytes() const
{
    return A_.n * sizeof(double);
}

IndexSniffer
JacobiWorkload::impSniffer(unsigned core) const
{
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
JacobiWorkload::emit(unsigned iter, bool is_last)
{
    const std::uint32_t n = A_.n;
    const Addr cur_base = x_base_[cur_];
    const Addr next_base = x_base_[cur_ ^ 1];
    std::vector<double> &xc = x_[cur_];
    std::vector<double> &xn = x_[cur_ ^ 1];

    for (unsigned c = 0; c < opts_.cores; ++c) {
        RnrRuntime &rt = *runtimes_[c];
        if (iter == 0) {
            rt.init(targetBytes());
            rt.addrBaseSet(x_base_[0], n * sizeof(double));
            rt.addrBaseSet(x_base_[1], n * sizeof(double));
            if (opts_.window_size)
                rt.windowSizeSet(opts_.window_size);
            rt.addrEnable(cur_base);
            rt.start();
        } else {
            rt.replay();
        }
    }

    double delta = 0.0;
    for (unsigned c = 0; c < opts_.cores; ++c) {
        Tracer &t = *tracers_[c];
        for (std::uint32_t i = row_starts_[c]; i < row_starts_[c + 1];
             ++i) {
            t.load(rowptr_base_ + i * sizeof(std::uint32_t), PcRowPtr);
            t.instr(3);
            double acc = 0.0;
            for (std::uint32_t e = A_.row_ptr[i]; e < A_.row_ptr[i + 1];
                 ++e) {
                if (A_.col[e] == i)
                    continue; // diagonal handled separately
                t.load(col_base_ + e * sizeof(std::uint32_t), PcCol);
                t.load(val_base_ + e * sizeof(double), PcVal);
                t.instr(2);
                t.load(cur_base + A_.col[e] * sizeof(double), PcXRead);
                t.instr(4);
                acc += A_.val[e] * xc[A_.col[e]];
            }
            t.load(b_base_ + i * sizeof(double), PcB);
            t.instr(4);
            const double next = (b_[i] - acc) / diag_[i];
            delta = std::max(delta, std::fabs(next - xc[i]));
            xn[i] = next;
            t.store(next_base + i * sizeof(double), PcXStore);
            t.instr(2);
        }
    }
    last_delta_ = delta;

    // Swap x_curr/x_next (the Algorithm 1 base-exchange protocol).
    for (unsigned c = 0; c < opts_.cores; ++c) {
        RnrRuntime &rt = *runtimes_[c];
        if (is_last) {
            rt.endState();
            rt.end();
        } else {
            rt.addrDisable(cur_base);
            rt.addrEnable(next_base);
        }
    }
    cur_ ^= 1;
}

} // namespace rnr
