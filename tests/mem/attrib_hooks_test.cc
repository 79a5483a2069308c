/**
 * @file
 * Integration tests for the attribution hooks inside the memory
 * hierarchy (mem/cache.h, mem/memory_system.cc): hook placement must
 * mirror the hardware counters exactly, the pollution filter must only
 * learn demand-owned victims, and an attached collector must never
 * change what the caches do (observation only).
 */
#include <algorithm>

#include <gtest/gtest.h>

#include "mem/cache.h"
#include "mem/memory_system.h"
#include "sim/attrib.h"
#include "test_util.h"

namespace rnr {
namespace {

CacheConfig
directMapped(std::uint64_t bytes = 1024)
{
    CacheConfig c;
    c.name = "T";
    c.size_bytes = bytes; // 1-way: insert in a full set always evicts
    c.ways = 1;
    c.mshrs = 4;
    c.latency = 4;
    return c;
}

TEST(AttribCacheHooks, UsefulChargedOnceToTheFillingSite)
{
    AttribCollector at;
    Cache c(directMapped());
    c.attach({.attrib = &at}, /*core=*/0);
    c.insert(9, 0, /*prefetched=*/true, false, /*site=*/0x400u);
    c.access(9, 10);
    c.access(9, 20); // second hit: already referenced, no charge

    const AttribBlob b = at.harvest();
    EXPECT_EQ(b.totals.useful, c.stats().get("prefetch_useful"));
    ASSERT_EQ(b.sites.size(), 1u);
    EXPECT_EQ(b.sites[0].site, 0x400u);
    EXPECT_EQ(b.sites[0].stats.useful, 1u);
}

TEST(AttribCacheHooks, UnusedPrefetchVictimChargedNotRemembered)
{
    AttribCollector at;
    Cache c(directMapped());
    c.attach({.attrib = &at}, /*core=*/0);
    const unsigned sets = c.config().sets();
    c.insert(3, 0, /*prefetched=*/true, false, /*site=*/0x100u);
    // A second prefetch displaces the never-referenced first one.
    c.insert(3 + sets, 5, /*prefetched=*/true, false, /*site=*/0x200u);

    AttribBlob b = at.harvest();
    EXPECT_EQ(b.totals.evicted_unused, 1u);
    EXPECT_EQ(b.totals.evicted_unused,
              c.stats().get("prefetch_evicted_unused"));
    // The waste is charged to the *victim's* site, not the evictor's.
    ASSERT_EQ(b.sites.size(), 1u);
    EXPECT_EQ(b.sites[0].site, 0x100u);
    EXPECT_EQ(b.sites[0].stats.evicted_unused, 1u);

    // Evicting an unused prefetch is waste, not pollution: the victim
    // must not enter the filter, so re-missing on it charges nothing.
    EXPECT_EQ(c.access(3, 50), nullptr);
    b = at.harvest();
    EXPECT_EQ(b.totals.pollution, 0u);
    EXPECT_EQ(b.pollution_filter_inserts, 0u);
}

TEST(AttribCacheHooks, DemandVictimReMissChargesPollution)
{
    AttribCollector at;
    Cache c(directMapped());
    c.attach({.attrib = &at}, /*core=*/0);
    const unsigned sets = c.config().sets();
    c.insert(8, 0, /*prefetched=*/false, false); // demand-owned line
    c.insert(8 + sets, 5, /*prefetched=*/true, false, /*site=*/0x7abcu);

    EXPECT_EQ(c.access(8, 50), nullptr); // the program still needed it
    const AttribBlob b = at.harvest();
    EXPECT_EQ(b.totals.pollution, 1u);
    EXPECT_EQ(b.pollution_filter_inserts, 1u);
    EXPECT_EQ(b.pollution_filter_hits, 1u);
    ASSERT_GE(b.sites.size(), 1u);
    EXPECT_EQ(b.sites[0].site, 0x7abcu);
    EXPECT_EQ(b.sites[0].stats.pollution, 1u);
}

TEST(AttribCacheHooks, ReferencedPrefetchVictimAlsoCountsAsDemandOwned)
{
    AttribCollector at;
    Cache c(directMapped());
    c.attach({.attrib = &at}, /*core=*/0);
    const unsigned sets = c.config().sets();
    c.insert(2, 0, /*prefetched=*/true, false, /*site=*/0x111u);
    c.access(2, 10); // referenced: the demand stream owns it now
    c.insert(2 + sets, 20, /*prefetched=*/true, false, /*site=*/0x222u);

    EXPECT_EQ(c.access(2, 50), nullptr);
    const AttribBlob b = at.harvest();
    EXPECT_EQ(b.totals.pollution, 1u);
    // Pollution is charged to the evicting site, not the victim's.
    const auto it = std::find_if(
        b.sites.begin(), b.sites.end(),
        [](const AttribBlob::SiteRow &r) { return r.site == 0x222u; });
    ASSERT_NE(it, b.sites.end());
    EXPECT_EQ(it->stats.pollution, 1u);
}

TEST(AttribCacheHooks, AttachedCollectorDoesNotPerturbCacheCounters)
{
    // Identical access sequences with and without a collector must
    // leave every hardware counter identical (observation only).
    const auto drive = [](Cache &c) {
        const unsigned sets = c.config().sets();
        for (Addr a = 0; a < 4 * sets; ++a) {
            c.access(a % (3 * sets), a);
            c.insert(a % (3 * sets), a, (a % 3) == 0, (a % 5) == 0,
                     (a % 3) == 0 ? 0x40u : 0u);
        }
    };
    Cache plain(directMapped());
    Cache observed(directMapped());
    AttribCollector at;
    observed.attach({.attrib = &at}, /*core=*/0);
    drive(plain);
    drive(observed);
    for (const char *name :
         {"accesses", "hits", "misses", "evictions", "writebacks",
          "prefetch_useful", "prefetch_evicted_unused", "fills_demand",
          "fills_prefetch"})
        EXPECT_EQ(plain.stats().get(name), observed.stats().get(name))
            << name;
}

TEST(AttribMemorySystem, TotalsMatchTheL2CountersExactly)
{
    MemorySystem ms(test::tinyMachine());
    AttribCollector at;
    ms.attach({.attrib = &at});

    // Overflow the 8 KiB L2 with prefetches (unused evictions), then
    // demand-touch a few resident ones (useful) and re-miss on what
    // the tail of the prefetch burst displaced (pollution candidates).
    Tick t = 0;
    for (unsigned i = 0; i < 512; ++i)
        ms.prefetchIntoL2(0, Addr(i) * kBlockSize, ++t,
                          /*site=*/0x1000u + (i % 4));
    for (unsigned i = 500; i < 512; ++i)
        t = ms.demandAccess(0, Addr(i) * kBlockSize, false, 1, t + 1).done;
    for (unsigned i = 0; i < 32; ++i)
        t = ms.demandAccess(0, Addr(i) * kBlockSize, false, 1, t + 1).done;

    const AttribBlob b = at.harvest();
    const StatGroup &l2 = ms.l2(0).stats();
    EXPECT_EQ(b.totals.issued, l2.get("prefetches_issued"));
    EXPECT_EQ(b.totals.useful, l2.get("prefetch_useful"));
    EXPECT_EQ(b.totals.late_merged,
              l2.get("demand_merged_into_prefetch"));
    EXPECT_EQ(b.totals.evicted_unused,
              l2.get("prefetch_evicted_unused"));
    EXPECT_GT(b.totals.issued, 0u);
    EXPECT_GT(b.totals.evicted_unused, 0u);
    EXPECT_EQ(b.pollution_filter_hits, b.totals.pollution);

    // Every event landed on one of the four issuing sites (or site 0
    // for demand-side events) — cross-check the table re-sums.
    std::uint64_t issued = b.site_other.issued;
    for (const auto &r : b.sites)
        issued += r.stats.issued;
    EXPECT_EQ(issued, b.totals.issued);
}

} // namespace
} // namespace rnr
