#include <vector>

#include <gtest/gtest.h>

#include "mem/tlb.h"
#include "sim/rng.h"

namespace rnr {
namespace {

TlbConfig
cfg()
{
    TlbConfig t;
    t.dtlb_entries = 4;
    t.stlb_entries = 16;
    t.stlb_latency = 8;
    t.walk_latency = 60;
    return t;
}

TEST(TlbTest, FirstAccessWalks)
{
    Tlb t(cfg());
    EXPECT_EQ(t.translate(0x1000), 60u);
    EXPECT_EQ(t.stats().get("walks"), 1u);
}

TEST(TlbTest, RepeatHitsDtlbForFree)
{
    Tlb t(cfg());
    t.translate(0x1000);
    EXPECT_EQ(t.translate(0x1400), 0u); // same page
    EXPECT_EQ(t.stats().get("dtlb_hits"), 1u);
}

TEST(TlbTest, DtlbConflictFallsBackToStlb)
{
    Tlb t(cfg());
    t.translate(0x1000);              // page 1 -> dtlb slot 1
    t.translate((1 + 4) * 0x1000ull); // page 5 -> same dtlb slot, walks
    // Page 1 was evicted from the DTLB but still sits in the STLB.
    EXPECT_EQ(t.translate(0x1000), 8u);
    EXPECT_EQ(t.stats().get("stlb_hits"), 1u);
}

TEST(TlbTest, FlushForgetsEverything)
{
    Tlb t(cfg());
    t.translate(0x1000);
    t.flush();
    EXPECT_EQ(t.translate(0x1000), 60u);
    EXPECT_EQ(t.stats().get("walks"), 2u);
}

TEST(TlbTest, IndexingMatchesPlainModuloForAnySize)
{
    // translate() indexes a power-of-two level with a mask; a
    // direct-mapped model indexed with plain % must see the same hits,
    // for power-of-two and other level sizes alike.
    for (const auto &[dtlb, stlb] :
         std::vector<std::pair<unsigned, unsigned>>{
             {64, 1536}, {64, 1000}, {48, 1536}, {3, 7}}) {
        TlbConfig c = cfg();
        c.dtlb_entries = dtlb;
        c.stlb_entries = stlb;
        Tlb t(c);
        std::vector<Addr> ref_d(dtlb, 0), ref_s(stlb, 0);
        std::uint64_t want_d = 0, want_s = 0, want_walks = 0;
        Rng rng(dtlb * 7919 + stlb);
        for (int i = 0; i < 200000; ++i) {
            // Mostly a working set a little larger than the STLB, with
            // some far pages whose index needs the full width.
            const Addr page = rng.below(8) == 0
                                  ? rng.next64() >> 20
                                  : rng.below(2 * stlb);
            Tick want = c.walk_latency;
            Addr &d = ref_d[page % dtlb];
            Addr &s = ref_s[page % stlb];
            if (d == page + 1) {
                want = 0;
                ++want_d;
            } else if (s == page + 1) {
                want = c.stlb_latency;
                ++want_s;
                d = page + 1;
            } else {
                ++want_walks;
                d = s = page + 1;
            }
            ASSERT_EQ(t.translate(page << kPageBits), want)
                << dtlb << "/" << stlb << " op " << i;
        }
        EXPECT_EQ(t.stats().get("dtlb_hits"), want_d);
        EXPECT_EQ(t.stats().get("stlb_hits"), want_s);
        EXPECT_EQ(t.stats().get("walks"), want_walks);
    }
}

} // namespace
} // namespace rnr
