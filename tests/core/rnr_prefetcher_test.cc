#include <gtest/gtest.h>

#include "ckpt/serde.h"
#include "core/rnr_prefetcher.h"
#include "test_util.h"

namespace rnr {
namespace {

/** Drives one RnR prefetcher on a single-core memory system. */
struct RnrFixture : ::testing::Test {
    RnrFixture() : ms(test::tinyMachine())
    {
        RnrPrefetcher::Options opts;
        opts.window_size = 4;
        pf = std::make_unique<RnrPrefetcher>(opts);
        ms.setPrefetcher(0, pf.get());
    }

    void
    ctl(RnrOp op, Addr p0 = 0, std::uint64_t p1 = 0)
    {
        pf->onControl(TraceRecord::control(op, p0, p1), t_);
    }

    /** Programs boundaries for [base, base+size) and starts recording. */
    void
    setupAndRecord(Addr base, std::uint64_t size)
    {
        ctl(RnrOp::Init, kSeqBase, kDivBase);
        ctl(RnrOp::AddrBaseSet, base, size);
        ctl(RnrOp::AddrEnable, base);
        ctl(RnrOp::Start);
    }

    /** One demand read; advances time enough to stay miss-ordered. */
    void
    read(Addr a)
    {
        ms.demandAccess(0, a, false, 1, t_);
        t_ += 800;
    }

    static constexpr Addr kSeqBase = 0x70000000;
    static constexpr Addr kDivBase = 0x71000000;
    static constexpr Addr kTarget = 0x100000;

    MemorySystem ms;
    std::unique_ptr<RnrPrefetcher> pf;
    Tick t_ = 0;
};

TEST_F(RnrFixture, InitProgramsArchitecturalState)
{
    ctl(RnrOp::Init, kSeqBase, kDivBase);
    EXPECT_EQ(pf->arch().seq_table_base, kSeqBase);
    EXPECT_EQ(pf->arch().div_table_base, kDivBase);
    EXPECT_EQ(pf->arch().window_size, 4u);
    EXPECT_EQ(pf->arch().state, RnrState::Idle);
}

TEST_F(RnrFixture, RecordCapturesMissSequenceAsOffsets)
{
    setupAndRecord(kTarget, 1 << 16);
    read(kTarget + 0 * kBlockSize);
    read(kTarget + 7 * kBlockSize);
    read(kTarget + 3 * kBlockSize);
    ASSERT_EQ(pf->sequence().size(), 3u);
    EXPECT_EQ(pf->sequence()[0].blockOffset(), 0u);
    EXPECT_EQ(pf->sequence()[1].blockOffset(), 7u);
    EXPECT_EQ(pf->sequence()[2].blockOffset(), 3u);
    EXPECT_EQ(pf->internals().cur_struct_read, 3u);
}

TEST_F(RnrFixture, HitsAreNotRecorded)
{
    setupAndRecord(kTarget, 1 << 16);
    read(kTarget);
    read(kTarget); // L1 hit: not even an L2 access
    EXPECT_EQ(pf->sequence().size(), 1u);
    EXPECT_EQ(pf->internals().cur_struct_read, 1u); // reads counted at L2
}

TEST_F(RnrFixture, AccessesOutsideRangeIgnored)
{
    setupAndRecord(kTarget, kBlockSize * 8);
    read(0x900000);
    read(kTarget + kBlockSize * 100); // beyond the declared size
    EXPECT_EQ(pf->sequence().size(), 0u);
}

TEST_F(RnrFixture, DivisionTableRecordsReadsPerWindow)
{
    setupAndRecord(kTarget, 1 << 16);
    // 8 misses with window_size 4 -> two division entries.
    for (int i = 0; i < 8; ++i)
        read(kTarget + Addr(i) * kBlockSize);
    ASSERT_EQ(pf->division().size(), 2u);
    EXPECT_EQ(pf->division()[0], 4u);
    EXPECT_EQ(pf->division()[1], 8u);
}

TEST_F(RnrFixture, MetadataWritebacksReachDram)
{
    setupAndRecord(kTarget, 1 << 16);
    // 64 entries x 2 B = one full 128 B staging buffer.
    for (int i = 0; i < 64; ++i)
        read(kTarget + Addr(i) * kBlockSize);
    EXPECT_GT(ms.dram().bytes(ReqOrigin::Metadata), 0u);
}

TEST_F(RnrFixture, ReplayPrefetchesRecordedSequence)
{
    setupAndRecord(kTarget, 1 << 16);
    const std::vector<unsigned> offsets = {5, 1, 9, 2};
    for (unsigned o : offsets)
        read(kTarget + Addr(o) * kBlockSize);
    // Drop the cache contents so prefetches are observable.
    ms.l2(0).reset();
    ms.l1d(0).reset();
    ctl(RnrOp::Replay);
    EXPECT_EQ(pf->arch().state, RnrState::Replay);
    for (unsigned o : offsets) {
        EXPECT_NE(ms.l2(0).peek(blockNumber(kTarget) + o), nullptr)
            << o;
    }
    EXPECT_GT(pf->stats().get("issued"), 0u);
}

TEST_F(RnrFixture, ReplayResolvesAgainstSwappedBase)
{
    // Algorithm 1's p_curr/p_next exchange: record against slot 0,
    // replay with slot 1 enabled instead.
    const Addr other = 0x200000;
    ctl(RnrOp::Init, kSeqBase, kDivBase);
    ctl(RnrOp::AddrBaseSet, kTarget, 1 << 16);
    ctl(RnrOp::AddrBaseSet, other, 1 << 16);
    ctl(RnrOp::AddrEnable, kTarget);
    ctl(RnrOp::Start);
    read(kTarget + 6 * kBlockSize);
    ctl(RnrOp::AddrDisable, kTarget);
    ctl(RnrOp::AddrEnable, other);
    ms.l2(0).reset();
    ms.l1d(0).reset();
    ctl(RnrOp::Replay);
    EXPECT_NE(ms.l2(0).peek(blockNumber(other) + 6), nullptr);
}

TEST_F(RnrFixture, PauseSuspendsAndResumeRestores)
{
    setupAndRecord(kTarget, 1 << 16);
    read(kTarget);
    ctl(RnrOp::Pause);
    EXPECT_EQ(pf->arch().state, RnrState::Paused);
    read(kTarget + 5 * kBlockSize); // not recorded while paused
    EXPECT_EQ(pf->sequence().size(), 1u);
    EXPECT_FALSE(pf->inTargetRegion(kTarget)); // boundary checks off
    ctl(RnrOp::Resume);
    EXPECT_EQ(pf->arch().state, RnrState::Record);
    read(kTarget + 9 * kBlockSize);
    EXPECT_EQ(pf->sequence().size(), 2u);
}

TEST_F(RnrFixture, EndStateDisablesAndFreeReleasesStorage)
{
    setupAndRecord(kTarget, 1 << 16);
    for (int i = 0; i < 5; ++i)
        read(kTarget + Addr(i) * kBlockSize);
    ctl(RnrOp::EndState);
    EXPECT_EQ(pf->arch().state, RnrState::Idle);
    const std::uint64_t bytes = pf->seqTableBytes();
    EXPECT_EQ(bytes, 5u * kSeqEntryBytes);
    ctl(RnrOp::Free);
    EXPECT_EQ(pf->sequence().size(), 0u);
    // Peak storage remains reported after the free (Fig 13's metric).
    EXPECT_EQ(pf->stats().get("seq_table_bytes"), bytes);
}

TEST_F(RnrFixture, FinishRecordingClosesPartialWindow)
{
    setupAndRecord(kTarget, 1 << 16);
    for (int i = 0; i < 6; ++i) // 1.5 windows
        read(kTarget + Addr(i) * kBlockSize);
    ctl(RnrOp::Replay);
    ASSERT_EQ(pf->division().size(), 2u);
    EXPECT_EQ(pf->division()[1], 6u);
}

TEST_F(RnrFixture, WritesAreNeitherCountedNorRecorded)
{
    setupAndRecord(kTarget, 1 << 16);
    ms.demandAccess(0, kTarget, true, 1, t_);
    EXPECT_EQ(pf->sequence().size(), 0u);
    EXPECT_EQ(pf->internals().cur_struct_read, 0u);
}

TEST_F(RnrFixture, ContextSwitchStateNearPaperFigure)
{
    // Section IV-C: 86.5 B of save/restore state.
    EXPECT_NEAR(static_cast<double>(RnrPrefetcher::contextSwitchBytes()),
                86.5, 2.0);
}

TEST_F(RnrFixture, OffsetBeyondEntryFormatIsSkippedNotCorrupted)
{
    // Declare a structure larger than the 2-byte entry format covers.
    const std::uint64_t huge = (SeqEntry::kMaxOffset + 1000) * kBlockSize;
    setupAndRecord(kTarget, huge);
    read(kTarget + (SeqEntry::kMaxOffset + 5) * kBlockSize);
    EXPECT_EQ(pf->sequence().size(), 0u);
    EXPECT_EQ(pf->stats().get("offset_overflow_skipped"), 1u);
    read(kTarget + 3 * kBlockSize); // in-range misses still record
    EXPECT_EQ(pf->sequence().size(), 1u);
}

TEST_F(RnrFixture, EnableOnUnknownBaseIsNoOp)
{
    ctl(RnrOp::Init, kSeqBase, kDivBase);
    ctl(RnrOp::AddrEnable, 0xDEAD000);
    ctl(RnrOp::Start);
    read(0xDEAD000);
    EXPECT_EQ(pf->sequence().size(), 0u);
}

TEST_F(RnrFixture, ReplayWithEmptySequenceIsInert)
{
    setupAndRecord(kTarget, 1 << 16);
    ctl(RnrOp::Replay); // nothing was recorded
    read(kTarget);
    EXPECT_EQ(pf->stats().get("issued"), 0u);
}

TEST_F(RnrFixture, SecondRecordingReplacesTheFirst)
{
    setupAndRecord(kTarget, 1 << 16);
    read(kTarget + 1 * kBlockSize);
    ctl(RnrOp::Start); // re-record from scratch
    read(kTarget + 8 * kBlockSize);
    ASSERT_EQ(pf->sequence().size(), 1u);
    EXPECT_EQ(pf->sequence()[0].blockOffset(), 8u);
}

TEST_F(RnrFixture, TimelinessClassificationCountsOnTime)
{
    setupAndRecord(kTarget, 1 << 16);
    const std::vector<unsigned> offsets = {1, 2, 3, 4, 5, 6, 7, 8};
    for (unsigned o : offsets)
        read(kTarget + Addr(o) * kBlockSize);
    ms.l2(0).reset();
    ms.l1d(0).reset();
    ctl(RnrOp::Replay);
    t_ += 100000; // everything prefetched in the burst has landed
    for (unsigned o : offsets)
        read(kTarget + Addr(o) * kBlockSize);
    EXPECT_GT(pf->stats().get("pf_ontime"), 0u);
    EXPECT_EQ(pf->stats().get("pf_early"), 0u);
}

/**
 * The L2 tells RnR only about prefetch-filled victims
 * (EvictResult::prefetched).  A replay prefetch of B is
 * referenced by an access that does not consume its record, then
 * evicted: the eviction must still mark the record, so the next target
 * read of B counts early.  Gating on "prefetched and unreferenced"
 * instead would drop that eviction and count it on time.
 */
void
expectEvictedReferencedPrefetchIsEarly(RnrFixture &f, bool by_write)
{
    f.setupAndRecord(RnrFixture::kTarget, 1 << 16);
    for (unsigned o = 1; o <= 8; ++o)
        f.read(RnrFixture::kTarget + Addr(o) * kBlockSize);
    f.ms.l2(0).reset();
    f.ms.l1d(0).reset();
    f.ctl(RnrOp::Replay);
    const Addr b = RnrFixture::kTarget + 1 * kBlockSize;
    const CacheLine *line = f.ms.l2(0).peek(blockNumber(b));
    ASSERT_NE(line, nullptr);
    ASSERT_TRUE(line->prefetched);
    f.t_ += 100000; // the burst has landed

    // Touch B without consuming its record: a write, or a read while
    // its range is disabled (not a target-structure read).
    if (by_write) {
        f.ms.demandAccess(0, b, true, 1, f.t_);
        f.t_ += 800;
    } else {
        f.ctl(RnrOp::AddrDisable, RnrFixture::kTarget);
        f.read(b);
        f.ctl(RnrOp::AddrEnable, RnrFixture::kTarget);
    }
    ASSERT_TRUE(f.ms.l2(0).peek(blockNumber(b))->referenced);

    // Evict B from the L1 and the L2 with blocks of its sets outside
    // the target range.
    const std::uint64_t sets = f.ms.l2(0).config().sets();
    for (unsigned i = 1; i <= 2 * f.ms.l2(0).config().ways; ++i)
        f.read(((blockNumber(0x900000) + i * sets) | (blockNumber(b) &
                                                      (sets - 1)))
               << kBlockBits);
    ASSERT_EQ(f.ms.l2(0).peek(blockNumber(b)), nullptr);
    ASSERT_EQ(f.pf->stats().get("pf_early"), 0u);

    f.read(b);
    EXPECT_EQ(f.pf->stats().get("pf_early"), 1u);
    EXPECT_EQ(f.pf->stats().get("pf_ontime"), 0u);
}

TEST_F(RnrFixture, WrittenPrefetchEvictedThenReadCountsEarly)
{
    expectEvictedReferencedPrefetchIsEarly(*this, true);
}

TEST_F(RnrFixture, NonTargetReadPrefetchEvictedThenReadCountsEarly)
{
    expectEvictedReferencedPrefetchIsEarly(*this, false);
}

/** One core's memory system and RnR prefetcher, driven by hand. */
struct RnrRig {
    RnrRig() : ms(test::tinyMachine())
    {
        opts.window_size = 4;
        pf = std::make_unique<RnrPrefetcher>(opts);
        ms.setPrefetcher(0, pf.get());
    }

    void
    ctl(RnrOp op, Addr p0 = 0, std::uint64_t p1 = 0)
    {
        pf->onControl(TraceRecord::control(op, p0, p1), t);
    }

    void
    read(Addr a)
    {
        ms.demandAccess(0, a, false, 1, t);
        t += 800;
    }

    /** The RnR state a context switch saves (ckpt::runSwitchStorm). */
    std::vector<std::uint8_t>
    rnrState()
    {
        ckpt::Ser s;
        pf->visitState(s);
        return s.take();
    }

    /** Context switch: the saved RnR state is loaded into a fresh
     *  prefetcher installed on this same live machine. */
    void
    switchToFreshPrefetcher()
    {
        const std::vector<std::uint8_t> blob = rnrState();
        auto fresh = std::make_unique<RnrPrefetcher>(opts);
        ms.setPrefetcher(0, fresh.get());
        pf = std::move(fresh);
        ckpt::Deser d(blob);
        pf->visitState(d);
        ASSERT_TRUE(d.ok()) << d.error();
        ASSERT_EQ(d.remaining(), 0u);
    }

    RnrPrefetcher::Options opts;
    MemorySystem ms;
    std::unique_ptr<RnrPrefetcher> pf;
    Tick t = 0;
};

TEST(RnrTimeliness, MidReplaySnapshotContinuesIdentically)
{
    // Record 96 misses (24 windows of 4), then replay while demanding
    // only every third block: most replay prefetches are never consumed
    // and must retire as out-of-window.  Mid-replay, one machine swaps
    // its RnR engine for a fresh one loaded from the saved state; it
    // must continue exactly like its twin that never switched.
    constexpr Addr kBase = 0x100000;
    RnrRig a, b;
    for (RnrRig *r : {&a, &b}) {
        r->ctl(RnrOp::Init, 0x70000000, 0x71000000);
        r->ctl(RnrOp::AddrBaseSet, kBase, 1 << 16);
        r->ctl(RnrOp::AddrEnable, kBase);
        r->ctl(RnrOp::Start);
        for (unsigned o = 0; o < 96; ++o)
            r->read(kBase + Addr(o) * kBlockSize);
        r->ms.l2(0).reset();
        r->ms.l1d(0).reset();
        r->ctl(RnrOp::Replay);
    }

    for (unsigned o = 0; o < 96; o += 3) {
        if (o == 48) {
            EXPECT_GT(a.pf->stats().get("pf_out_of_window"), 0u);
            a.switchToFreshPrefetcher();
            ASSERT_FALSE(::testing::Test::HasFatalFailure());
        }
        a.read(kBase + Addr(o) * kBlockSize);
        b.read(kBase + Addr(o) * kBlockSize);
    }
    for (const char *name : {"issued", "pf_ontime", "pf_early", "pf_late",
                             "pf_out_of_window"})
        EXPECT_EQ(a.pf->stats().get(name), b.pf->stats().get(name))
            << name;
    EXPECT_GT(a.pf->stats().get("pf_out_of_window"), 0u);
    const CacheCounters &la = a.ms.l2(0).ctr();
    const CacheCounters &lb = b.ms.l2(0).ctr();
    EXPECT_EQ(la.hits.value(), lb.hits.value());
    EXPECT_EQ(la.misses.value(), lb.misses.value());
    EXPECT_EQ(la.prefetch_useful.value(), lb.prefetch_useful.value());
    EXPECT_EQ(a.rnrState(), b.rnrState());
}

} // namespace
} // namespace rnr
