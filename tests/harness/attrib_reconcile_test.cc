/**
 * @file
 * End-to-end attribution guarantees through runExperimentUncached():
 *
 *  1. **Exact reconciliation** — AttribBlob::totals and the rnr_*
 *     class counts equal the IterStats counters summed over iterations
 *     for every prefetcher family (the tables may fold, the totals may
 *     not drift).
 *  2. **Observation only** — enabling attribution leaves every
 *     IterStats field bit-identical.
 *
 * The file cache and trace store are disabled so every run is a real
 * simulation (a cache hit would carry no attrib blob by design).
 */
#include <cstdlib>
#include <cstdint>

#include <gtest/gtest.h>

#include "harness/runner.h"
#include "sim/attrib.h"

namespace rnr {
namespace {

struct AttribReconcileFixture : ::testing::Test {
    void
    SetUp() override
    {
        setenv("RNR_CACHE", "0", 1);
        setenv("RNR_TRACE_STORE", "0", 1);
        unsetenv("RNR_OBS");
    }

    /** IterStats counter summed over every simulated iteration. */
    static std::uint64_t
    sum(const ExperimentResult &r, std::uint64_t IterStats::*field)
    {
        std::uint64_t s = 0;
        for (const IterStats &it : r.iterations)
            s += it.*field;
        return s;
    }

    static void
    expectExactReconciliation(
        const ExperimentConfig &cfg,
        std::size_t site_top_k = AttribCollector::kDefaultSiteTopK,
        std::size_t region_top_k = AttribCollector::kDefaultRegionTopK)
    {
        AttribCollector at(site_top_k, region_top_k);
        const ExperimentResult r =
            runExperimentUncached(cfg, {.attrib = &at});
        ASSERT_NE(r.attrib, nullptr) << cfg.key();
        const AttribBlob &b = *r.attrib;

        EXPECT_EQ(b.totals.issued, sum(r, &IterStats::pf_issued))
            << cfg.key();
        EXPECT_EQ(b.totals.useful, sum(r, &IterStats::pf_useful))
            << cfg.key();
        EXPECT_EQ(b.totals.late_merged,
                  sum(r, &IterStats::pf_late_merged))
            << cfg.key();
        EXPECT_EQ(b.rnr_ontime, sum(r, &IterStats::rnr_ontime))
            << cfg.key();
        EXPECT_EQ(b.rnr_early, sum(r, &IterStats::rnr_early))
            << cfg.key();
        EXPECT_EQ(b.rnr_late, sum(r, &IterStats::rnr_late)) << cfg.key();
        EXPECT_EQ(b.rnr_out_of_window,
                  sum(r, &IterStats::rnr_out_of_window))
            << cfg.key();

        // The capped tables plus their fold buckets re-sum to the
        // totals on every outcome axis.
        for (auto field : {&AttribSiteStats::issued,
                           &AttribSiteStats::useful,
                           &AttribSiteStats::late_merged,
                           &AttribSiteStats::evicted_unused,
                           &AttribSiteStats::pollution}) {
            std::uint64_t sites = b.site_other.*field;
            for (const auto &row : b.sites)
                sites += row.stats.*field;
            EXPECT_EQ(sites, b.totals.*field) << cfg.key();
            std::uint64_t regions = b.region_other.*field;
            for (const auto &row : b.regions)
                regions += row.stats.*field;
            EXPECT_EQ(regions, b.totals.*field) << cfg.key();
        }
        EXPECT_EQ(b.pollution_filter_hits, b.totals.pollution)
            << cfg.key();
        EXPECT_GE(b.sites_tracked, b.sites.size()) << cfg.key();
        EXPECT_GE(b.regions_tracked, b.regions.size()) << cfg.key();
    }

    /** Attribution on vs. off: IterStats must be bit-identical. */
    static void
    expectObservationOnly(const ExperimentConfig &cfg)
    {
        const ExperimentResult plain = runExperimentUncached(cfg);
        AttribCollector at;
        const ExperimentResult observed =
            runExperimentUncached(cfg, {.attrib = &at});

        ASSERT_EQ(observed.iterations.size(), plain.iterations.size())
            << cfg.key();
        for (std::size_t i = 0; i < observed.iterations.size(); ++i) {
            const IterStats &a = observed.iterations[i];
            const IterStats &b = plain.iterations[i];
#define RNR_CHECK_FIELD(type, name)                                         \
    EXPECT_EQ(a.name, b.name) << cfg.key() << " iter " << i << " " << #name;
            RNR_ITER_STAT_FIELDS(RNR_CHECK_FIELD)
#undef RNR_CHECK_FIELD
        }
        EXPECT_EQ(observed.seq_table_bytes, plain.seq_table_bytes);
        EXPECT_EQ(observed.div_table_bytes, plain.div_table_bytes);
    }
};

TEST_F(AttribReconcileFixture, RnrReconcilesExactly)
{
    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.iterations = 2;
    cfg.prefetcher = PrefetcherKind::Rnr;
    expectExactReconciliation(cfg);
}

TEST_F(AttribReconcileFixture, StreamReconcilesExactly)
{
    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.iterations = 2;
    cfg.prefetcher = PrefetcherKind::Stream;
    expectExactReconciliation(cfg);
}

TEST_F(AttribReconcileFixture, RnrCombinedReconcilesExactly)
{
    // Both site families at once: PC sites from the stream side, lane
    // sites from the replay side.
    ExperimentConfig cfg;
    cfg.app = "spcg";
    cfg.input = "pdb1HYS";
    cfg.iterations = 2;
    cfg.prefetcher = PrefetcherKind::RnrCombined;
    expectExactReconciliation(cfg);
}

TEST_F(AttribReconcileFixture, DropletReconcilesExactly)
{
    ExperimentConfig cfg;
    cfg.app = "hyperanf";
    cfg.input = "amazon";
    cfg.iterations = 2;
    cfg.prefetcher = PrefetcherKind::Droplet;
    expectExactReconciliation(cfg);
}

TEST_F(AttribReconcileFixture, TinyTablesStillReconcile)
{
    // Pathologically small top-K caps: everything folds, totals hold.
    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.iterations = 2;
    cfg.prefetcher = PrefetcherKind::RnrCombined;
    expectExactReconciliation(cfg, /*site_top_k=*/2, /*region_top_k=*/2);
}

TEST_F(AttribReconcileFixture, ObservationOnlyUnderBatchedKernel)
{
    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.iterations = 2;
    cfg.prefetcher = PrefetcherKind::Rnr;
    expectObservationOnly(cfg);
}

} // namespace
} // namespace rnr
