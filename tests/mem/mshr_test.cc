#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "mem/mshr.h"
#include "sim/rng.h"

namespace rnr {
namespace {

TEST(MshrTest, InsertAndFind)
{
    Mshr m(4);
    m.insert(10, 100, false);
    ASSERT_NE(m.find(10), nullptr);
    EXPECT_EQ(m.find(10)->fill, 100u);
    EXPECT_EQ(m.find(11), nullptr);
}

TEST(MshrTest, PurgeDropsCompletedEntries)
{
    Mshr m(4);
    m.insert(1, 50, false);
    m.insert(2, 150, false);
    m.purge(100);
    EXPECT_EQ(m.find(1), nullptr);
    EXPECT_NE(m.find(2), nullptr);
    EXPECT_EQ(m.inFlight(), 1u);
}

TEST(MshrTest, FullAndEarliestFill)
{
    Mshr m(2);
    m.insert(1, 300, false);
    EXPECT_FALSE(m.full());
    m.insert(2, 200, true);
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.earliestFill(), 200u);
}

TEST(MshrTest, PrefetchFlagStored)
{
    Mshr m(2);
    m.insert(5, 100, true);
    EXPECT_TRUE(m.find(5)->prefetch);
}

TEST(MshrTest, ClearEmpties)
{
    Mshr m(2);
    m.insert(1, 10, false);
    m.clear();
    EXPECT_EQ(m.inFlight(), 0u);
    EXPECT_EQ(m.find(1), nullptr);
}

// --- next-event cursor (the batched kernel's quiet-cycle skip) ------

TEST(MshrTest, NextFillIsMaxOnEmptyFile)
{
    Mshr m(4);
    EXPECT_EQ(m.nextFill(), kTickMax);
}

TEST(MshrTest, NextFillTracksMinimumAcrossInserts)
{
    Mshr m(4);
    m.insert(1, 300, false);
    EXPECT_EQ(m.nextFill(), 300u);
    m.insert(2, 100, true);
    EXPECT_EQ(m.nextFill(), 100u);
    m.insert(3, 200, false);
    EXPECT_EQ(m.nextFill(), 100u); // later fills don't lower the min
}

TEST(MshrTest, PurgeBeforeCursorIsANoOp)
{
    Mshr m(4);
    m.insert(1, 100, false);
    m.insert(2, 200, false);
    // Strictly before the earliest fill: nothing can have completed,
    // so the purge must not drop entries or move the cursor.
    m.purge(99);
    EXPECT_EQ(m.inFlight(), 2u);
    EXPECT_EQ(m.nextFill(), 100u);
}

TEST(MshrTest, PurgeAtExactBoundaryDropsAndRecomputes)
{
    Mshr m(4);
    m.insert(1, 100, false);
    m.insert(2, 250, false);
    m.insert(3, 250, true);
    // now == fill counts as completed (fill <= now drops).
    m.purge(100);
    EXPECT_EQ(m.find(1), nullptr);
    EXPECT_EQ(m.inFlight(), 2u);
    EXPECT_EQ(m.nextFill(), 250u); // recomputed to the surviving min
    // Draining the rest resets the cursor to "no event".
    m.purge(250);
    EXPECT_EQ(m.inFlight(), 0u);
    EXPECT_EQ(m.nextFill(), kTickMax);
}

TEST(MshrTest, DrainThenRefillRestartsCursor)
{
    // A fully drained file (the MSHR-drain-at-block-boundary case) must
    // accept new entries with a fresh cursor, not a stale one.
    Mshr m(2);
    m.insert(1, 50, false);
    m.purge(1000);
    EXPECT_EQ(m.nextFill(), kTickMax);
    m.insert(2, 2000, false);
    EXPECT_EQ(m.nextFill(), 2000u);
    m.purge(1500); // before the new fill: still a no-op
    EXPECT_EQ(m.inFlight(), 1u);
}

TEST(MshrTest, ClearResetsCursor)
{
    Mshr m(2);
    m.insert(1, 10, false);
    m.clear();
    EXPECT_EQ(m.nextFill(), kTickMax);
}

TEST(MshrTest, EarliestFillAgreesWithCursorWhenNonEmpty)
{
    Mshr m(4);
    m.insert(7, 400, false);
    m.insert(8, 150, false);
    EXPECT_EQ(m.earliestFill(), m.nextFill());
    EXPECT_EQ(m.earliestFill(), 150u);
}

// --- presence filter: find() must return what a plain scan returns ---

/** The first @p n blocks from @p from on whose filter counter is @p bit. */
std::vector<Addr>
blocksOnBit(unsigned bit, std::size_t n, Addr from = 1)
{
    std::vector<Addr> out;
    for (Addr b = from; out.size() < n; ++b)
        if (Mshr::filterSlot(b) == bit)
            out.push_back(b);
    return out;
}

TEST(MshrFilterTest, MoreThan255EntriesOnOneCounter)
{
    // A file larger than a byte counter can count, every entry on one
    // counter: it saturates and stays non-zero, so nothing is missed.
    const std::vector<Addr> same = blocksOnBit(Mshr::filterSlot(3), 300);
    Mshr m(300);
    for (std::size_t i = 0; i < same.size(); ++i)
        m.insert(same[i], i + 1, false);
    for (Addr b : same)
        ASSERT_NE(m.find(b), nullptr);
    m.purge(150);
    EXPECT_EQ(m.find(same[0]), nullptr);
    EXPECT_NE(m.find(same[299]), nullptr);
    m.purge(300);
    EXPECT_EQ(m.inFlight(), 0u);
    EXPECT_EQ(m.find(same[299]), nullptr);
    EXPECT_TRUE(m.mayHold(same[0])); // stuck until the file is cleared
    m.clear();
    EXPECT_FALSE(m.mayHold(same[0]));
}

TEST(MshrFilterTest, FindAfterInsertPurgeAndClear)
{
    Mshr m(32);
    for (Addr b = 0; b < 32; ++b)
        m.insert(b * 977, 100 + b, false);
    for (Addr b = 0; b < 32; ++b) {
        ASSERT_NE(m.find(b * 977), nullptr) << b;
        EXPECT_EQ(m.find(b * 977)->fill, 100 + b);
    }
    m.purge(115); // drops fills 100..115
    for (Addr b = 0; b < 32; ++b)
        EXPECT_EQ(m.find(b * 977) != nullptr, 100 + b > 115) << b;
    m.clear();
    for (Addr b = 0; b < 32; ++b)
        EXPECT_EQ(m.find(b * 977), nullptr) << b;
    EXPECT_FALSE(m.mayHold(0));
    m.insert(977, 500, true);
    ASSERT_NE(m.find(977), nullptr);
    EXPECT_TRUE(m.find(977)->prefetch);
}

TEST(MshrFilterTest, BlocksSharingOneBitAreEachFound)
{
    const std::vector<Addr> same = blocksOnBit(Mshr::filterSlot(42), 6);
    Mshr m(8);
    for (std::size_t i = 0; i < same.size(); ++i)
        m.insert(same[i], 10 * (i + 1), false);
    for (std::size_t i = 0; i < same.size(); ++i) {
        ASSERT_NE(m.find(same[i]), nullptr) << i;
        EXPECT_EQ(m.find(same[i])->block, same[i]);
        EXPECT_EQ(m.find(same[i])->fill, 10 * (i + 1));
    }
    // Purging some of them keeps the bit set for the survivors.
    m.purge(30);
    for (std::size_t i = 0; i < same.size(); ++i)
        EXPECT_EQ(m.find(same[i]) != nullptr, i >= 3) << i;
}

TEST(MshrFilterTest, AbsentBlockWhoseBitIsSetIsNotFound)
{
    const std::vector<Addr> same = blocksOnBit(Mshr::filterSlot(7), 2);
    Mshr m(4);
    m.insert(same[0], 100, false);
    EXPECT_TRUE(m.mayHold(same[1]));
    EXPECT_EQ(m.find(same[1]), nullptr);
    // A purged block's counter drops back to zero, not left stale.
    m.purge(100);
    EXPECT_FALSE(m.mayHold(same[0]));
    EXPECT_EQ(m.find(same[0]), nullptr);
}

TEST(MshrFilterTest, RandomOpsMatchAPlainScan)
{
    // Reference model: the same entries in a vector, searched linearly.
    Rng rng(0x5eed);
    Mshr m(16);
    std::vector<Mshr::Entry> ref;
    Tick now = 0;
    for (int op = 0; op < 200000; ++op) {
        const Addr block = rng.below(256); // dense: many shared bits
        switch (rng.below(8)) {
        case 0:
            now += rng.below(40);
            m.purge(now);
            std::erase_if(ref, [&](const Mshr::Entry &e) {
                return e.fill <= now;
            });
            break;
        case 1:
            if (rng.below(500) == 0) {
                m.clear();
                ref.clear();
            }
            break;
        case 2:
        case 3:
            if (!m.full() && !m.find(block)) {
                const Tick fill = now + 1 + rng.below(200);
                m.insert(block, fill, false);
                ref.push_back({block, fill, false, 0});
            }
            break;
        default: {
            const Mshr::Entry *got = m.find(block);
            const Mshr::Entry *want = nullptr;
            for (const Mshr::Entry &e : ref)
                if (e.block == block) {
                    want = &e;
                    break;
                }
            ASSERT_EQ(got != nullptr, want != nullptr) << op;
            if (got) {
                ASSERT_EQ(got->fill, want->fill) << op;
            }
        }
        }
        ASSERT_EQ(m.inFlight(), ref.size()) << op;
        Tick earliest = kTickMax;
        for (const Mshr::Entry &e : ref)
            earliest = std::min(earliest, e.fill);
        ASSERT_EQ(m.nextFill(), earliest) << op;
    }
}

} // namespace
} // namespace rnr
