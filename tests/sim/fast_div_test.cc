#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "sim/fast_div.h"
#include "sim/rng.h"

namespace rnr {
namespace {

/** Dividends that sit on the edges of @p d's quotient steps and of the
 *  64-bit range, plus random small and full-width values. */
std::vector<std::uint64_t>
dividends(std::uint64_t d)
{
    const std::uint64_t max = ~std::uint64_t{0};
    std::vector<std::uint64_t> out = {0, 1, 2, 3, max, max - 1, max / 2,
                                      max / 2 + 1, std::uint64_t{1} << 32,
                                      (std::uint64_t{1} << 32) - 1};
    for (std::uint64_t k : {std::uint64_t{1}, std::uint64_t{2},
                            std::uint64_t{1000}, max / d}) {
        const std::uint64_t m = k * d;
        out.insert(out.end(), {m - 1, m, m + 1});
    }
    Rng rng(d);
    for (int i = 0; i < 20000; ++i) {
        out.push_back(rng.below(1 << 20));
        out.push_back(rng.next64());
        out.push_back(rng.next64() >> rng.below(64));
    }
    return out;
}

void
expectExact(std::uint64_t d)
{
    const FastDiv f(d);
    EXPECT_EQ(f.divisor(), d);
    for (const std::uint64_t n : dividends(d)) {
        ASSERT_EQ(f.div(n), n / d) << n << " / " << d;
        ASSERT_EQ(f.mod(n), n % d) << n << " % " << d;
    }
}

TEST(FastDiv, MatchesTheOperatorsForTheMachineSizes)
{
    // Widths and DRAM sizes of the default machines (all powers of
    // two), and 1536, the default STLB size.
    for (std::uint64_t d : {1, 2, 4, 16, 32, 64, 128, 1536})
        expectExact(d);
}

TEST(FastDiv, MatchesTheOperatorsForOtherSizes)
{
    // Issue/retire width 3, 1000, and 3 DRAM channels of 24 banks with
    // 128-block rows (row divisor 3 * 24 * 128).
    for (std::uint64_t d : {3, 5, 7, 24, 1000, 3 * 24 * 128})
        expectExact(d);
}

TEST(FastDiv, RejectsAZeroDivisor)
{
    EXPECT_THROW(FastDiv(0), std::invalid_argument);
}

} // namespace
} // namespace rnr
