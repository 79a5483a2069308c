/**
 * @file
 * MemorySystem::prefetchFootprintIntoL2 against a loop of
 * prefetchIntoL2 calls.
 *
 * The footprint call purges the L2's two queues once per batch instead
 * of once per block.  That must change nothing: two identical memory
 * systems, one fed footprints and one fed the same blocks one at a
 * time, must end with the same counters at every level and the same
 * per-outcome prefetcher tallies.  The golden cells cannot see those
 * counters (IterStats folds only issued/useful/late), so this is the
 * test that pins the redundant and queue-full tallies.
 */
#include <bit>
#include <vector>

#include <gtest/gtest.h>

#include "mem/memory_system.h"
#include "sim/rng.h"
#include "test_util.h"

namespace rnr {
namespace {

/** Exposes the two issue paths; trains on nothing. */
class ProbePrefetcher : public Prefetcher
{
  public:
    void onAccess(const L2AccessInfo &) override {}
    std::string name() const override { return "probe"; }
    using Prefetcher::issueFootprint;
    using Prefetcher::issuePrefetch;
};

void
expectSameCounters(MemorySystem &a, MemorySystem &b, ProbePrefetcher &pa,
                   ProbePrefetcher &pb)
{
    EXPECT_EQ(a.l1d(0).stats().dump(), b.l1d(0).stats().dump());
    EXPECT_EQ(a.l2(0).stats().dump(), b.l2(0).stats().dump());
    EXPECT_EQ(a.llc().stats().dump(), b.llc().stats().dump());
    EXPECT_EQ(a.dram().stats().dump(), b.dram().stats().dump());
    EXPECT_EQ(pa.stats().dump(), pb.stats().dump());
    EXPECT_EQ(a.l2(0).prefetchQueue().inFlight(),
              b.l2(0).prefetchQueue().inFlight());
    EXPECT_EQ(a.l2(0).mshr().inFlight(), b.l2(0).mshr().inFlight());
}

TEST(PrefetchFootprint, MatchesPerBlockIssueUnderAFullQueue)
{
    const MachineConfig m = test::tinyMachine();
    MemorySystem a(m), b(m);
    ProbePrefetcher pa, pb;
    a.setPrefetcher(0, &pa);
    b.setPrefetcher(0, &pb);

    Rng rng(0xf007);
    Tick now = 0;
    std::uint64_t full_drops = 0, redundant = 0;
    for (int step = 0; step < 4000; ++step) {
        // Demand traffic over a small footprint keeps lines resident and
        // MSHRs busy, so footprints hit every outcome.
        const Addr vaddr = rng.below(1 << 12) * kBlockSize;
        const DemandResult da = a.demandAccess(0, vaddr, false, 7, now);
        const DemandResult db = b.demandAccess(0, vaddr, false, 7, now);
        ASSERT_EQ(da.done, db.done) << step;

        // Two random footprints, a quarter of them all 64 blocks, each a
        // little later than the last request, so fills complete between
        // them and the purges have work to do; time moves slowly, so
        // the prefetch queue is full for most of the run.
        for (int f = 0; f < 2; ++f) {
            now += rng.below(40);
            const Addr base = rng.below(1 << 7) * 32;
            std::uint64_t mask = rng.next64();
            mask &= rng.next64();
            if (rng.below(4) == 0)
                mask = ~std::uint64_t{0};
            const auto site = static_cast<std::uint32_t>(rng.below(5));
            const FootprintIssue got =
                pa.issueFootprint(base, mask, now, site);
            FootprintIssue want;
            for (std::uint64_t bits = mask; bits; bits &= bits - 1) {
                const Addr block =
                    base + static_cast<unsigned>(std::countr_zero(bits));
                const PrefetchIssue r =
                    pb.issuePrefetch(block << kBlockBits, now, site);
                want.issued += r.issued;
                want.redundant += r.redundant;
                want.mshr_full += r.mshr_full;
            }
            ASSERT_EQ(got.issued, want.issued) << step;
            ASSERT_EQ(got.redundant, want.redundant) << step;
            ASSERT_EQ(got.mshr_full, want.mshr_full) << step;
            ASSERT_EQ(got.issued + got.redundant + got.mshr_full,
                      static_cast<unsigned>(std::popcount(mask)));
            full_drops += got.mshr_full;
            redundant += got.redundant;
        }
    }
    // The scenario exercised the outcomes the loop exists for.
    EXPECT_GT(full_drops, 10000u);
    EXPECT_GT(redundant, 1000u);
    EXPECT_GT(pa.stats().get("issued"), 1000u);
    expectSameCounters(a, b, pa, pb);
}

TEST(PrefetchFootprint, EmptyMaskIssuesNothing)
{
    MemorySystem ms(test::tinyMachine());
    ProbePrefetcher pf;
    ms.setPrefetcher(0, &pf);
    const FootprintIssue r = pf.issueFootprint(64, 0, 10, 0);
    EXPECT_EQ(r.issued + r.redundant + r.mshr_full, 0u);
    EXPECT_EQ(ms.l2(0).stats().get("prefetches_issued"), 0u);
    EXPECT_EQ(ms.dram().stats().get("reads"), 0u);
}

} // namespace
} // namespace rnr
