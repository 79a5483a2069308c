/**
 * @file
 * TraceSource block API tests: the batched kernel pulls whole runs via
 * takeBlock(), so BufferSource must hand out zero-copy views that
 * interleave freely with take().
 */
#include <cstddef>

#include <gtest/gtest.h>

#include "trace/trace_source.h"

namespace rnr {
namespace {

TraceBuffer
makeBuffer(std::size_t n)
{
    TraceBuffer b;
    for (std::size_t i = 0; i < n; ++i)
        b.push(TraceRecord::load(0x1000 + Addr(i) * 64,
                                 static_cast<std::uint32_t>(i),
                                 static_cast<std::uint16_t>(i % 4)));
    return b;
}

TEST(BufferSourceBlockTest, TakeBlockReturnsWholeRemainderZeroCopy)
{
    const TraceBuffer buf = makeBuffer(100);
    BufferSource src(&buf);

    std::size_t n = 0;
    const TraceRecord *run = src.takeBlock(n);
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(n, 100u);
    // Zero-copy: the run IS the buffer's storage, not a staged copy.
    EXPECT_EQ(run, buf.records().data());
    EXPECT_TRUE(src.done());
    EXPECT_EQ(src.takeBlock(n), nullptr);
    EXPECT_EQ(n, 0u);
}

TEST(BufferSourceBlockTest, TakeAndTakeBlockDrainTheSamePosition)
{
    const TraceBuffer buf = makeBuffer(10);
    BufferSource src(&buf);

    const TraceRecord first = src.take();
    EXPECT_EQ(first.addr, buf.records()[0].addr);

    std::size_t n = 0;
    const TraceRecord *run = src.takeBlock(n);
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(n, 9u);
    EXPECT_EQ(run, buf.records().data() + 1);
    EXPECT_TRUE(src.done());
}

TEST(BufferSourceBlockTest, EmptyAndDetachedBuffersYieldNoRun)
{
    std::size_t n = 7;
    BufferSource detached;
    EXPECT_EQ(detached.takeBlock(n), nullptr);
    EXPECT_EQ(n, 0u);

    const TraceBuffer empty;
    BufferSource src(&empty);
    n = 7;
    EXPECT_EQ(src.takeBlock(n), nullptr);
    EXPECT_EQ(n, 0u);
}

} // namespace
} // namespace rnr
