/**
 * @file
 * Unit tests for the Ring FIFO backing the core model's ROB/LSQ queues
 * (sim/ring.h).
 */
#include <gtest/gtest.h>

#include "sim/ring.h"

namespace rnr {
namespace {

TEST(RingTest, StartsEmpty)
{
    Ring<int> r(4);
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.size(), 0u);
}

TEST(RingTest, FifoOrder)
{
    Ring<int> r(4);
    r.push_back(1);
    r.push_back(2);
    r.push_back(3);
    EXPECT_EQ(r.size(), 3u);
    EXPECT_EQ(r.front(), 1);
    r.pop_front();
    EXPECT_EQ(r.front(), 2);
    r.pop_front();
    r.push_back(4);
    EXPECT_EQ(r.front(), 3);
    r.pop_front();
    EXPECT_EQ(r.front(), 4);
    r.pop_front();
    EXPECT_TRUE(r.empty());
}

TEST(RingTest, AtIndexesFromFront)
{
    Ring<int> r(8);
    // Force the window to wrap around the physical array.
    for (int i = 0; i < 6; ++i)
        r.push_back(i);
    for (int i = 0; i < 5; ++i)
        r.pop_front();
    for (int i = 10; i < 16; ++i)
        r.push_back(i);
    ASSERT_EQ(r.size(), 7u);
    EXPECT_EQ(r.at(0), 5);
    for (std::size_t i = 1; i < r.size(); ++i)
        EXPECT_EQ(r.at(i), static_cast<int>(9 + i));
}

TEST(RingTest, GrowsPastReservedCapacityPreservingOrder)
{
    Ring<int> r(2);
    // Push far beyond the reserved capacity; the ring must grow and
    // keep FIFO order rather than assert or overwrite.
    for (int i = 0; i < 100; ++i)
        r.push_back(i);
    ASSERT_EQ(r.size(), 100u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(r.front(), i);
        r.pop_front();
    }
    EXPECT_TRUE(r.empty());
}

TEST(RingTest, GrowthWithWrappedWindow)
{
    Ring<int> r(4);
    // Wrap the head first, then overflow: grow() must re-linearise the
    // wrapped window correctly.
    for (int i = 0; i < 4; ++i)
        r.push_back(i);
    r.pop_front();
    r.pop_front();
    for (int i = 4; i < 20; ++i)
        r.push_back(i);
    ASSERT_EQ(r.size(), 18u);
    for (int i = 2; i < 20; ++i) {
        EXPECT_EQ(r.front(), i);
        r.pop_front();
    }
}

TEST(RingTest, ClearKeepsCapacity)
{
    Ring<int> r(4);
    r.push_back(7);
    r.clear();
    EXPECT_TRUE(r.empty());
    r.push_back(9);
    EXPECT_EQ(r.front(), 9);
}

TEST(RingTest, ResetReservesRequestedCapacity)
{
    Ring<int> r(1);
    r.reset(192); // non-power-of-two; rounds up internally
    for (int i = 0; i < 192; ++i)
        r.push_back(i);
    EXPECT_EQ(r.size(), 192u);
    EXPECT_EQ(r.front(), 0);
}

} // namespace
} // namespace rnr
