#include <gtest/gtest.h>

#include "trace/tracer.h"

namespace rnr {
namespace {

TEST(TraceBufferTest, CountsByKind)
{
    TraceBuffer b;
    b.push(TraceRecord::load(0x100, 1, 3));
    b.push(TraceRecord::store(0x200, 2, 0));
    b.push(TraceRecord::control(RnrOp::Start));
    EXPECT_EQ(b.size(), 3u);
    EXPECT_EQ(b.loads(), 1u);
    EXPECT_EQ(b.stores(), 1u);
    EXPECT_EQ(b.controls(), 1u);
    // 3 gap + 1 load + 1 store; controls are not instructions here.
    EXPECT_EQ(b.instructions(), 5u);
}

TEST(TraceBufferTest, ClearResetsEverything)
{
    TraceBuffer b;
    b.push(TraceRecord::load(0x100, 1, 3));
    b.clear();
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.instructions(), 0u);
}

TEST(TracerTest, GapAttachesToNextRecord)
{
    TraceBuffer b;
    Tracer t(&b);
    t.instr(5);
    t.instr(2);
    t.load(0x100, 1);
    t.store(0x200, 2);
    EXPECT_TRUE(b.empty()); // staged until the block fills or flushes
    t.flush();
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b.records()[0].gap, 7u);
    EXPECT_EQ(b.records()[1].gap, 0u);
}

TEST(TracerTest, ControlCarriesPayloads)
{
    TraceBuffer b;
    Tracer t(&b);
    t.control(RnrOp::AddrBaseSet, 0xABC0, 4096);
    t.flush();
    ASSERT_EQ(b.size(), 1u);
    const TraceRecord &r = b.records()[0];
    EXPECT_EQ(r.kind, RecordKind::Control);
    EXPECT_EQ(r.ctrl, RnrOp::AddrBaseSet);
    EXPECT_EQ(r.addr, 0xABC0u);
    EXPECT_EQ(r.aux, 4096u);
}

TEST(TracerTest, RetargetSwitchesBufferAndDropsGap)
{
    TraceBuffer b1, b2;
    Tracer t(&b1);
    t.instr(9);
    t.retarget(&b2);
    t.load(0x100, 1);
    t.flush();
    EXPECT_TRUE(b1.empty());
    ASSERT_EQ(b2.size(), 1u);
    EXPECT_EQ(b2.records()[0].gap, 0u); // pending gap was discarded
}

TEST(AddressSpaceTest, RegionsArePageAlignedAndDisjoint)
{
    AddressSpace as;
    const Addr a = as.allocate("a", 100);
    const Addr b = as.allocate("b", kPageSize + 1);
    const Addr c = as.allocate("c", 8);
    EXPECT_EQ(a % kPageSize, 0u);
    EXPECT_EQ(b % kPageSize, 0u);
    EXPECT_GE(b, a + kPageSize);
    EXPECT_GE(c, b + 2 * kPageSize);
}

TEST(AddressSpaceTest, FindByName)
{
    AddressSpace as;
    as.allocate("edges", 128);
    const AddressSpace::Region *r = as.find("edges");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->bytes, 128u);
    EXPECT_EQ(as.find("missing"), nullptr);
}

TEST(AddressSpaceTest, NeverHandsOutAddressZero)
{
    AddressSpace as;
    EXPECT_GT(as.allocate("first", 8), 0u);
}

TEST(RecordTest, ConstructorsSetKinds)
{
    EXPECT_EQ(TraceRecord::load(1, 2, 3).kind, RecordKind::Load);
    EXPECT_EQ(TraceRecord::store(1, 2, 3).kind, RecordKind::Store);
    EXPECT_EQ(TraceRecord::control(RnrOp::Pause).kind,
              RecordKind::Control);
}

} // namespace
} // namespace rnr
