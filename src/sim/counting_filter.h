/**
 * @file
 * Counting presence filter for integer keys.
 *
 * A lookup table that most probes miss (an MSHR file asked for blocks
 * it does not hold, RnR's timeliness map asked for blocks it never
 * prefetched) can answer those misses from a small array instead of
 * its own scan or probe.  Each of the 2^Bits byte counters holds how
 * many keys of the table hash to it (the top Bits bits of the key's
 * Fibonacci hash): the table calls add() when a key enters and
 * remove() when it leaves, and a zero counter means "certainly
 * absent".  A counter that reaches 255 stays there, so it can never
 * wrap to zero under a present key; it only stops filtering for its
 * slot.  The filter therefore has no false negatives, and a table that
 * consults it returns exactly what it would without it.
 */
#ifndef RNR_SIM_COUNTING_FILTER_H
#define RNR_SIM_COUNTING_FILTER_H

#include <array>
#include <cstdint>

namespace rnr {

/** Presence filter of 2^Bits saturating byte counters (see file
 *  comment). */
template <unsigned Bits>
class CountingFilter
{
  public:
    /** The counter of @p key. */
    static std::size_t
    slot(std::uint64_t key)
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                        (64 - Bits));
    }

    /** False when @p key is certainly not in the table. */
    bool mayHold(std::uint64_t key) const { return counts_[slot(key)] != 0; }

    void
    add(std::uint64_t key)
    {
        std::uint8_t &c = counts_[slot(key)];
        if (c != kStuck)
            ++c;
    }

    void
    remove(std::uint64_t key)
    {
        std::uint8_t &c = counts_[slot(key)];
        if (c != kStuck)
            --c;
    }

    void clear() { counts_.fill(0); }

  private:
    static constexpr std::uint8_t kStuck = 255;

    std::array<std::uint8_t, std::size_t{1} << Bits> counts_{};
};

} // namespace rnr

#endif // RNR_SIM_COUNTING_FILTER_H
