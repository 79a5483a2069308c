#include <vector>

#include <gtest/gtest.h>

#include "mem/dram.h"
#include "sim/rng.h"

namespace rnr {
namespace {

DramConfig
cfg(unsigned channels)
{
    DramConfig d;
    d.channels = channels;
    d.banks = 4;
    d.read_queue = 1024;
    d.tCAS = d.tRCD = d.tRP = 20;
    d.tBURST = 8;
    d.row_bytes = 1024;
    return d;
}

/** Last completion of a burst of @p n sequential block reads at t=0. */
Tick
burstFinish(Dram &d, int n)
{
    Tick last = 0;
    for (int i = 0; i < n; ++i)
        last = std::max(last, d.read(Addr(i) * kBlockSize, 0,
                                     ReqOrigin::Demand));
    return last;
}

TEST(DramChannelsTest, MoreChannelsMeanMoreBandwidth)
{
    Dram one(cfg(1)), two(cfg(2)), four(cfg(4));
    const Tick t1 = burstFinish(one, 256);
    const Tick t2 = burstFinish(two, 256);
    const Tick t4 = burstFinish(four, 256);
    // 256 bursts at tBURST=8: channel-bound; doubling channels roughly
    // halves the finish time.
    EXPECT_GT(t1, t2 * 3 / 2);
    EXPECT_GT(t2, t4 * 3 / 2);
}

TEST(DramChannelsTest, SingleChannelBehaviourUnchanged)
{
    // channels=1 must degenerate to the classic single-channel model.
    Dram d(cfg(1));
    const Tick t1 = d.read(0, 0, ReqOrigin::Demand);
    EXPECT_EQ(t1, 20u * 3 + 8);
    const Tick t2 = d.read(0, 1000, ReqOrigin::Demand);
    EXPECT_EQ(t2, 1000 + 20 + 8); // row hit
}

TEST(DramChannelsTest, ChannelsPartitionBlocks)
{
    // With 2 channels, blocks 0 and 1 are on different channels: two
    // simultaneous reads do not serialise on one data bus.
    Dram d(cfg(2));
    const Tick a = d.read(0, 0, ReqOrigin::Demand);
    const Tick b = d.read(kBlockSize, 0, ReqOrigin::Demand);
    EXPECT_EQ(a, b); // identical idle paths, independent channels
}

TEST(DramChannelsTest, PlacementMatchesPlainDivisionForOddGeometry)
{
    // 3 channels of 24 banks: the channel/bank/row split runs without a
    // divide (sim/fast_div.h) and must place every block where plain
    // / and % do.  Reads spaced far apart see only their own bank's
    // open row, so each latency says row hit or row miss.
    DramConfig c = cfg(3);
    c.banks = 24;
    c.row_bytes = 2048;
    Dram d(c);
    const std::uint64_t row_blocks = c.row_bytes / kBlockSize;
    std::vector<std::uint64_t> open(c.channels * c.banks, ~0ull);
    std::uint64_t want_hits = 0;
    Rng rng(3 * 24);
    Tick now = 0;
    for (int i = 0; i < 100000; ++i) {
        // Dense blocks so rows repeat, and some far ones.
        const Addr blk = rng.below(4) == 0 ? rng.next64() >> 12
                                           : rng.below(1 << 16);
        const std::uint64_t bank =
            (blk % c.channels) * c.banks + (blk / c.channels) % c.banks;
        const std::uint64_t row = blk / c.channels / c.banks / row_blocks;
        const bool hit = open[bank] == row;
        open[bank] = row;
        want_hits += hit;
        now += 100000;
        const Tick done = d.read(blk << kBlockBits, now, ReqOrigin::Demand);
        ASSERT_EQ(done - now, (hit ? c.tCAS : c.tRP + c.tRCD + c.tCAS) +
                                  c.tBURST)
            << "read " << i << " of block " << blk;
    }
    EXPECT_EQ(d.stats().get("row_hits"), want_hits);
}

} // namespace
} // namespace rnr
