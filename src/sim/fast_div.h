/**
 * @file
 * Division by a divisor fixed at construction.
 *
 * The per-record step divides by machine parameters that never change
 * during a run: the core's issue and retire widths and the DRAM
 * channel, bank and row geometry.  A 64-bit `div` costs up to tens of
 * cycles, and the core divided twice per record.  Every default
 * machine uses powers of two for these sizes, so FastDiv precomputes
 * the divisor's shift and mask and keeps the operators for any other
 * size.  tests/sim/fast_div_test.cc checks both paths against `/`
 * and `%`.
 */
#ifndef RNR_SIM_FAST_DIV_H
#define RNR_SIM_FAST_DIV_H

#include <bit>
#include <cstdint>
#include <stdexcept>

namespace rnr {

/** n / d and n % d for a fixed d >= 1 (see file comment). */
class FastDiv
{
  public:
    explicit FastDiv(std::uint64_t d)
        : d_(d), shift_(static_cast<unsigned>(std::countr_zero(d))),
          pow2_(std::has_single_bit(d))
    {
        if (d == 0)
            throw std::invalid_argument("FastDiv: divisor is zero");
    }

    std::uint64_t divisor() const { return d_; }

    std::uint64_t
    div(std::uint64_t n) const
    {
        return pow2_ ? n >> shift_ : n / d_;
    }

    std::uint64_t
    mod(std::uint64_t n) const
    {
        return pow2_ ? n & (d_ - 1) : n % d_;
    }

  private:
    std::uint64_t d_;
    unsigned shift_; ///< log2(d); meaningful only for a power of two.
    bool pow2_;
};

} // namespace rnr

#endif // RNR_SIM_FAST_DIV_H
