/**
 * @file
 * Tests for the log2 bucket math and the plain-cell histogram
 * (sim/log2_hist.h); the sampler's use of it is covered by
 * sim/timeseries_test.cc.
 */
#include <cstdint>

#include <gtest/gtest.h>

#include "sim/log2_hist.h"

namespace rnr {
namespace {

TEST(Log2Buckets, ZeroGetsItsOwnBucket)
{
    EXPECT_EQ(log2b::index(0), 0u);
    EXPECT_EQ(log2b::low(0), 0u);
    EXPECT_EQ(log2b::high(0), 0u);
}

TEST(Log2Buckets, PowerOfTwoEdges)
{
    // Bucket i >= 1 holds [2^(i-1), 2^i - 1].
    for (unsigned i = 1; i < 64; ++i) {
        EXPECT_EQ(log2b::index(log2b::low(i)), i);
        EXPECT_EQ(log2b::index(log2b::high(i)), i);
        EXPECT_EQ(log2b::index(log2b::high(i) + 1), i + 1);
        EXPECT_EQ(log2b::high(i) + 1, log2b::low(i + 1));
    }
}

TEST(Log2Buckets, TopBucketSaturates)
{
    const std::uint64_t max = ~std::uint64_t{0};
    EXPECT_EQ(log2b::index(max), 64u);
    EXPECT_EQ(log2b::high(64), max);
    EXPECT_EQ(log2b::high(99), max); // out-of-range i never overflows
    EXPECT_LT(log2b::index(max), log2b::kBuckets);
}

TEST(Log2HistogramTest, PlainCells)
{
    Log2Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.maxBucket(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);

    h.record(0);
    h.record(1);
    h.record(7);
    h.record(8);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 16u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
    EXPECT_EQ(h.bucket(0), 1u); // {0}
    EXPECT_EQ(h.bucket(1), 1u); // {1}
    EXPECT_EQ(h.bucket(3), 1u); // [4,7]
    EXPECT_EQ(h.bucket(4), 1u); // [8,15]
    EXPECT_EQ(h.bucket(99), 0u); // out-of-range read is safe
    EXPECT_EQ(h.maxBucket(), 5u);
}

} // namespace
} // namespace rnr
