#include <gtest/gtest.h>

#include "core/rnr_runtime.h"

namespace rnr {
namespace {

struct RuntimeFixture : ::testing::Test {
    RuntimeFixture() : tracer(&buf), rt(&tracer, &space, "t0") {}

    const TraceRecord &
    rec(std::size_t i) const
    {
        return buf.records()[i];
    }

    TraceBuffer buf;
    AddressSpace space;
    Tracer tracer;
    RnrRuntime rt;
};

TEST_F(RuntimeFixture, InitAllocatesMetadataAndEmitsControl)
{
    rt.init(1 << 20);
    tracer.flush();
    ASSERT_EQ(buf.controls(), 1u);
    EXPECT_EQ(rec(0).ctrl, RnrOp::Init);
    EXPECT_EQ(rec(0).addr, rt.seqTableBase());
    EXPECT_EQ(rec(0).aux, rt.divTableBase());
    EXPECT_NE(space.find("rnr_seq_t0"), nullptr);
    EXPECT_NE(space.find("rnr_div_t0"), nullptr);
    // Sequence table sized generously for the declared structure.
    EXPECT_GE(space.find("rnr_seq_t0")->bytes, std::uint64_t{1} << 20);
}

TEST_F(RuntimeFixture, TableICallsEmitMatchingOps)
{
    rt.init(4096);
    rt.addrBaseSet(0x1000, 512);
    rt.addrEnable(0x1000);
    rt.windowSizeSet(64);
    rt.start();
    rt.replay();
    rt.pause();
    rt.resume();
    rt.addrDisable(0x1000);
    rt.endState();
    rt.end();
    tracer.flush();
    const std::vector<RnrOp> expect = {
        RnrOp::Init,     RnrOp::AddrBaseSet, RnrOp::AddrEnable,
        RnrOp::WindowSizeSet, RnrOp::Start,  RnrOp::Replay,
        RnrOp::Pause,    RnrOp::Resume,      RnrOp::AddrDisable,
        RnrOp::EndState, RnrOp::Free,
    };
    ASSERT_EQ(buf.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(rec(i).ctrl, expect[i]) << i;
    // Payload spot checks.
    EXPECT_EQ(rec(1).addr, 0x1000u);
    EXPECT_EQ(rec(1).aux, 512u);
    EXPECT_EQ(rec(3).addr, 64u);
}

TEST_F(RuntimeFixture, DisabledRuntimeIsInert)
{
    RnrRuntime off(&tracer, &space, "off", /*enabled=*/false);
    off.init(4096);
    off.addrBaseSet(1, 2);
    off.start();
    off.replay();
    off.end();
    tracer.flush();
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(space.find("rnr_seq_off"), nullptr);
}

TEST_F(RuntimeFixture, RetargetMovesSubsequentRecords)
{
    TraceBuffer other;
    rt.init(4096);
    rt.retarget(&other);
    rt.start();
    tracer.flush();
    EXPECT_EQ(buf.controls(), 1u);
    EXPECT_EQ(other.controls(), 1u);
}

} // namespace
} // namespace rnr
