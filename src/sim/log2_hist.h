/**
 * @file
 * The log2-bucketed histogram behind the per-simulation telemetry
 * histograms (sim/timeseries.h).  Single-writer: one histogram belongs
 * to one simulation, so its cells are plain uint64_t.
 *
 * Bucketing: bucket 0 holds exactly {0}; bucket i >= 1 holds
 * [2^(i-1), 2^i - 1]; 65 buckets cover all of uint64_t.  The index of
 * value v is bit_width(v), so recording is O(1) with no branches
 * beyond the array index.
 */
#ifndef RNR_SIM_LOG2_HIST_H
#define RNR_SIM_LOG2_HIST_H

#include <bit>
#include <cstdint>

namespace rnr {
namespace log2b {

inline constexpr unsigned kBuckets = 65;

/** Bucket for @p v: 0 for 0, otherwise bit_width(v). */
constexpr unsigned
index(std::uint64_t v)
{
    return static_cast<unsigned>(std::bit_width(v));
}

/** Smallest value bucket @p i can hold. */
constexpr std::uint64_t
low(unsigned i)
{
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}

/** Largest value bucket @p i can hold (saturates: bucket 64's upper
 *  edge is UINT64_MAX, not an out-of-range shift). */
constexpr std::uint64_t
high(unsigned i)
{
    if (i == 0)
        return 0;
    if (i >= 64)
        return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
}

} // namespace log2b

/** Power-of-two-bucket histogram for latency distributions; the
 *  bucket edges are log2b::low() and log2b::high(). */
class Log2Histogram
{
  public:
    static constexpr unsigned kBuckets = log2b::kBuckets;

    void
    record(std::uint64_t v)
    {
        ++count_;
        sum_ += v;
        ++buckets_[log2b::index(v)];
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }

    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

    std::uint64_t
    bucket(unsigned i) const
    {
        return i < kBuckets ? buckets_[i] : 0;
    }

    /** One past the highest non-empty bucket (0 when empty). */
    unsigned
    maxBucket() const
    {
        for (unsigned i = kBuckets; i > 0; --i)
            if (buckets_[i - 1])
                return i;
        return 0;
    }

  private:
    std::uint64_t buckets_[kBuckets] = {};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

} // namespace rnr

#endif // RNR_SIM_LOG2_HIST_H
