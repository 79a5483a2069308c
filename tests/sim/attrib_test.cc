/**
 * @file
 * Unit tests for the attribution collector (sim/attrib.h): the site-id
 * grammar, the exact-totals-despite-folding invariant, deterministic
 * top-K eviction, the recently-evicted-victim pollution filter,
 * harvest ordering, the replay-window table, and the rnr-attrib-v2
 * JSON surface.  Simulation-level reconciliation against real
 * IterStats lives in tests/harness/attrib_reconcile_test.cc.
 */
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "sim/attrib.h"

namespace rnr {
namespace {

TEST(AttribSiteGrammar, RnrSitesCarryBit31AndTheCoreId)
{
    EXPECT_EQ(attribRnrSite(0), 0x8000'0000u);
    EXPECT_EQ(attribRnrSite(3), 0x8000'0003u);
    EXPECT_TRUE(attribSiteIsRnr(attribRnrSite(7)));
    EXPECT_FALSE(attribSiteIsRnr(0));          // "no site"
    EXPECT_FALSE(attribSiteIsRnr(0x00401a2cu)); // a trigger PC
}

TEST(AttribSiteGrammar, RegionsAre4KiBGranules)
{
    const unsigned blocks_per_region = 1u << kAttribRegionShift;
    EXPECT_EQ(blocks_per_region * kBlockSize, 4096u);
    EXPECT_EQ(attribRegion(0), 0u);
    EXPECT_EQ(attribRegion(blocks_per_region - 1), 0u);
    EXPECT_EQ(attribRegion(blocks_per_region), 1u);
}

TEST(AttribCollector, TotalsSurviveTableFolds)
{
    // Tiny tables so every insert past the second folds something.
    AttribCollector at(/*site_top_k=*/2, /*region_top_k=*/2);
    const unsigned stride = 1u << kAttribRegionShift; // one block/region
    for (std::uint32_t s = 1; s <= 10; ++s)
        at.onIssued(s, Addr(s) * stride);

    const AttribBlob b = at.harvest();
    EXPECT_EQ(b.totals.issued, 10u);
    EXPECT_EQ(b.sites.size(), 2u);
    EXPECT_EQ(b.regions.size(), 2u);
    EXPECT_EQ(b.sites_tracked, 10u);
    EXPECT_EQ(b.regions_tracked, 10u);

    // Tables + "other" buckets always re-sum to the exact totals.
    std::uint64_t site_sum = b.site_other.issued;
    for (const auto &r : b.sites)
        site_sum += r.stats.issued;
    EXPECT_EQ(site_sum, b.totals.issued);
    std::uint64_t region_sum = b.region_other.issued;
    for (const auto &r : b.regions)
        region_sum += r.stats.issued;
    EXPECT_EQ(region_sum, b.totals.issued);
}

TEST(AttribCollector, FoldEvictsLeastActiveSiteSmallestIdOnTies)
{
    AttribCollector at(/*site_top_k=*/2, /*region_top_k=*/64);
    at.onIssued(5, 0);
    at.onIssued(5, 0);
    at.onIssued(5, 0);
    at.onIssued(9, 0); // both tracked, 5 is the busier one
    at.onIssued(2, 0); // full: folds 9 (total 1 < 3)

    AttribBlob b = at.harvest();
    ASSERT_EQ(b.sites.size(), 2u);
    EXPECT_EQ(b.sites[0].site, 5u); // sorted by descending activity
    EXPECT_EQ(b.sites[1].site, 2u);
    EXPECT_EQ(b.site_other.issued, 1u);

    // Tie on total(): the smallest site id is the victim.
    AttribCollector tie(/*site_top_k=*/2, /*region_top_k=*/64);
    tie.onIssued(8, 0);
    tie.onIssued(4, 0);
    tie.onIssued(6, 0); // 8 and 4 tie at total 1 -> 4 folds
    b = tie.harvest();
    ASSERT_EQ(b.sites.size(), 2u);
    EXPECT_EQ(b.sites[0].site, 6u); // ties in harvest sort: ascending id
    EXPECT_EQ(b.sites[1].site, 8u);
    EXPECT_EQ(b.site_other.issued, 1u);
    EXPECT_EQ(b.sites_tracked, 3u);
}

TEST(AttribCollector, PollutionChargeConsumesTheFilterEntry)
{
    AttribCollector at;
    at.onPrefetchEvictsDemand(/*core=*/0, /*site=*/9, /*victim=*/100);
    at.onDemandMiss(0, 100);
    at.onDemandMiss(0, 100); // consumed: no double charge

    const AttribBlob b = at.harvest();
    EXPECT_EQ(b.totals.pollution, 1u);
    EXPECT_EQ(b.pollution_filter_inserts, 1u);
    EXPECT_EQ(b.pollution_filter_hits, 1u);
    ASSERT_EQ(b.sites.size(), 1u);
    EXPECT_EQ(b.sites[0].site, 9u);
    EXPECT_EQ(b.sites[0].stats.pollution, 1u);
}

TEST(AttribCollector, PollutionFilterMissesAndCollisions)
{
    AttribCollector at;
    at.onDemandMiss(0, 77); // empty filter: nothing charged
    at.onDemandMiss(3, 77); // core never even allocated a filter

    at.onPrefetchEvictsDemand(0, 1, 50);
    at.onDemandMiss(0, 51);    // wrong block, same-ish neighborhood
    at.onDemandMiss(1, 50);    // right block, wrong core
    const Addr alias = 50 + AttribCollector::kVictimFilterEntries;
    at.onPrefetchEvictsDemand(0, 2, alias); // direct-mapped collision
    at.onDemandMiss(0, 50);    // overwritten: no charge
    at.onDemandMiss(0, alias); // the surviving entry charges site 2

    const AttribBlob b = at.harvest();
    EXPECT_EQ(b.totals.pollution, 1u);
    EXPECT_EQ(b.pollution_filter_inserts, 2u);
    EXPECT_EQ(b.pollution_filter_hits, 1u);
    ASSERT_EQ(b.sites.size(), 1u);
    EXPECT_EQ(b.sites[0].site, 2u);
}

TEST(AttribCollector, HarvestOrdersSitesByActivityAndRegionsByAddress)
{
    AttribCollector at;
    const unsigned stride = 1u << kAttribRegionShift;
    at.onIssued(30, 5 * stride);
    at.onUseful(30, 5 * stride);
    at.onIssued(10, 2 * stride);
    at.onIssued(20, 9 * stride);
    at.onLateMerged(20, 9 * stride);
    at.onEvictedUnused(20, 9 * stride);

    const AttribBlob b = at.harvest();
    ASSERT_EQ(b.sites.size(), 3u);
    EXPECT_EQ(b.sites[0].site, 20u); // total 3
    EXPECT_EQ(b.sites[1].site, 30u); // total 2
    EXPECT_EQ(b.sites[2].site, 10u); // total 1
    ASSERT_EQ(b.regions.size(), 3u);
    EXPECT_EQ(b.regions[0].region, 2u);
    EXPECT_EQ(b.regions[1].region, 5u);
    EXPECT_EQ(b.regions[2].region, 9u);
}

TEST(AttribJson, CarriesSchemaTagAndExactCounts)
{
    AttribCollector at;
    at.onIssued(attribRnrSite(1), 4);
    at.onRnrClass(RnrTimeliness::OnTime, 0);
    const std::string js = attribJson(at.harvest());

    EXPECT_NE(js.find("\"schema\": \"rnr-attrib-v2\""), std::string::npos);
    EXPECT_NE(js.find("\"totals\": {\"issued\": 1"), std::string::npos);
    EXPECT_NE(js.find("\"site\": 2147483649, \"rnr\": true"),
              std::string::npos);
    EXPECT_NE(js.find("\"rnr\": {\"ontime\": 1"), std::string::npos);
    EXPECT_EQ(js.find('\n'), std::string::npos); // one line, no newline
}

// ---- The replay-window table ----
//
// TraceCollectorTest cases keep the names they had when the event
// trace's collector kept this table.

TEST(TraceCollectorTest, AggregateOnlyHooksBypassTheRings)
{
    // The demand, issue, pace and refill-stall hooks fill only the
    // window row: no prefetch outcome or class total moves.
    AttribCollector at;
    at.onWindowDemand(2);
    at.onWindowDemand(2);
    at.onWindowIssue(2);
    at.onWindowPace(2, 5);
    at.onRefillStall(2);

    const AttribBlob b = at.harvest();
    ASSERT_EQ(b.windows.size(), 1u);
    EXPECT_EQ(b.windows[0].window, 2u);
    EXPECT_EQ(b.windows[0].demands, 2u);
    EXPECT_EQ(b.windows[0].issued, 1u);
    EXPECT_EQ(b.windows[0].pace, 5u);
    EXPECT_EQ(b.windows[0].refill_stalls, 1u);
    EXPECT_EQ(b.totals.issued, 0u);
    EXPECT_EQ(b.rnr_ontime + b.rnr_early + b.rnr_late +
                  b.rnr_out_of_window,
              0u);
    EXPECT_TRUE(b.sites.empty());
    EXPECT_TRUE(b.regions.empty());
}

TEST(TraceCollectorTest, ReportSkipsUntouchedWindowsAndSumsTotals)
{
    AttribCollector at;
    // Touch windows 0, 2 and 4; leave 1 and 3 untouched (dense rows).
    at.onRnrClass(RnrTimeliness::OnTime, 0);
    at.onRnrClass(RnrTimeliness::OnTime, 0);
    at.onWindowIssue(0);
    at.onWindowDemand(2);
    at.onWindowDemand(2);
    at.onRnrClass(RnrTimeliness::OutOfWindow, 2);
    at.onRnrClass(RnrTimeliness::Early, 4);
    at.onRnrClass(RnrTimeliness::Late, 4);
    at.onWindowDemand(4);
    at.onRefillStall(4);

    const AttribBlob b = at.harvest();
    ASSERT_EQ(b.windows.size(), 3u);
    EXPECT_EQ(b.windows[0].window, 0u);
    EXPECT_EQ(b.windows[1].window, 2u);
    EXPECT_EQ(b.windows[2].window, 4u);
    EXPECT_EQ(b.windows[0].ontime, 2u);
    EXPECT_EQ(b.windows[1].demands, 2u);
    EXPECT_EQ(b.windows[1].out_of_window, 1u);
    EXPECT_EQ(b.windows[2].early, 1u);
    EXPECT_EQ(b.windows[2].late, 1u);
    // Each class also counts in the run total.
    EXPECT_EQ(b.rnr_ontime, 2u);
    EXPECT_EQ(b.rnr_early, 1u);
    EXPECT_EQ(b.rnr_late, 1u);
    EXPECT_EQ(b.rnr_out_of_window, 1u);

    const ReplayDiagnostics d = buildReplayDiagnostics(b);
    EXPECT_EQ(d.windows, b.windows);
    EXPECT_EQ(d.total.ontime, 2u);
    EXPECT_EQ(d.total.early, 1u);
    EXPECT_EQ(d.total.late, 1u);
    EXPECT_EQ(d.total.out_of_window, 1u);
    EXPECT_EQ(d.total.demands, 3u);
    EXPECT_EQ(d.total.issued, 1u);
    EXPECT_EQ(d.total.refill_stalls, 1u);
}

TEST(AttribWindows, PaceIsTheLastValueSetInAWindow)
{
    AttribCollector at;
    at.onWindowPace(2, 7);
    at.onWindowPace(2, 4); // a recompute (a later replay pass)
    at.onWindowPace(5, 9);

    const AttribBlob b = at.harvest();
    ASSERT_EQ(b.windows.size(), 2u);
    EXPECT_EQ(b.windows[0].window, 2u);
    EXPECT_EQ(b.windows[0].pace, 4u);
    EXPECT_EQ(b.windows[1].pace, 9u);
    // A pace alone touches a row but adds nothing to the totals.
    const ReplayDiagnostics d = buildReplayDiagnostics(b);
    EXPECT_EQ(d.total.demands + d.total.issued + d.total.ontime, 0u);
}

TEST(AttribWindows, ResetEmptiesTheTable)
{
    AttribCollector at;
    at.onWindowDemand(6);
    at.onWindowPace(6, 3);
    at.onRnrClass(RnrTimeliness::Late, 6);
    ASSERT_EQ(at.harvest().windows.size(), 1u);

    at.reset();
    const AttribBlob b = at.harvest();
    EXPECT_TRUE(b.windows.empty());
    EXPECT_EQ(b.rnr_late, 0u);
    at.onWindowIssue(1);
    ASSERT_EQ(at.harvest().windows.size(), 1u);
    EXPECT_EQ(at.harvest().windows[0].window, 1u);
}

} // namespace
} // namespace rnr
