/**
 * @file
 * Unit tests for the process-wide metrics registry (src/obs/metrics.h):
 * exact totals under concurrent bumps, snapshot coherence while other
 * threads keep bumping, the log2 histogram's bucket edges, and a golden
 * copy of the rnr-metrics-v1 JSON exposition.
 */
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/json_parse.h"
#include "obs/metrics.h"

namespace rnr {
namespace obs {
namespace {

TEST(Metrics, ConcurrentCounterBumpsLoseNothing)
{
    MetricsRegistry::instance().resetForTest();
    Counter *c = MetricsRegistry::instance().counter(
        "rnr_test_concurrent_total");
    ASSERT_NE(c, nullptr);

    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kBumps = 20000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([c] {
            for (std::uint64_t i = 0; i < kBumps; ++i)
                c->add();
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(c->value(), kThreads * kBumps);
}

TEST(Metrics, LookupReturnsTheSamePointerEveryTime)
{
    MetricsRegistry &reg = MetricsRegistry::instance();
    Counter *a = reg.counter("rnr_test_same_total");
    Counter *b = reg.counter("rnr_test_same_total");
    EXPECT_EQ(a, b) << "call sites cache the pointer; it must be stable";
    EXPECT_NE(a, reg.counter("rnr_test_other_total"));
}

TEST(Metrics, GaugeSetAddSub)
{
    MetricsRegistry::instance().resetForTest();
    Gauge *g = MetricsRegistry::instance().gauge("rnr_test_depth");
    ASSERT_NE(g, nullptr);
    g->set(10);
    g->add(5);
    g->sub(20);
    EXPECT_EQ(g->value(), -5) << "gauges are signed";
}

TEST(Metrics, SnapshotWhileBumpingIsMonotonic)
{
    MetricsRegistry::instance().resetForTest();
    Counter *c = MetricsRegistry::instance().counter(
        "rnr_test_racing_total");
    ASSERT_NE(c, nullptr);

    constexpr std::uint64_t kBumps = 200000;
    std::thread writer([c] {
        for (std::uint64_t i = 0; i < kBumps; ++i)
            c->add();
    });
    std::uint64_t prev = 0;
    for (int i = 0; i < 50; ++i) {
        const MetricsSnapshot snap =
            MetricsRegistry::instance().snapshot();
        std::uint64_t seen = 0;
        for (const auto &[name, v] : snap.counters)
            if (name == "rnr_test_racing_total")
                seen = v;
        EXPECT_GE(seen, prev) << "snapshots must never run backwards";
        EXPECT_LE(seen, kBumps);
        prev = seen;
    }
    writer.join();
    EXPECT_EQ(c->value(), kBumps);
}

TEST(Metrics, HistogramBucketIndexIsBitWidth)
{
    EXPECT_EQ(Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(1), 1u);
    EXPECT_EQ(Histogram::bucketIndex(2), 2u);
    EXPECT_EQ(Histogram::bucketIndex(3), 2u);
    EXPECT_EQ(Histogram::bucketIndex(4), 3u);
    EXPECT_EQ(Histogram::bucketIndex(7), 3u);
    EXPECT_EQ(Histogram::bucketIndex(8), 4u);
    EXPECT_EQ(Histogram::bucketIndex(1023), 10u);
    EXPECT_EQ(Histogram::bucketIndex(1024), 11u);
    EXPECT_EQ(Histogram::bucketIndex(~std::uint64_t{0}), 64u);
}

TEST(Metrics, HistogramBucketUpperBoundsArePowerOfTwoMinusOne)
{
    EXPECT_EQ(Histogram::bucketUpperBound(0), 0u);
    EXPECT_EQ(Histogram::bucketUpperBound(1), 1u);
    EXPECT_EQ(Histogram::bucketUpperBound(2), 3u);
    EXPECT_EQ(Histogram::bucketUpperBound(3), 7u);
    EXPECT_EQ(Histogram::bucketUpperBound(10), 1023u);
    EXPECT_EQ(Histogram::bucketUpperBound(63),
              (std::uint64_t{1} << 63) - 1);
    EXPECT_EQ(Histogram::bucketUpperBound(64), ~std::uint64_t{0});
}

TEST(Metrics, HistogramObserveLandsValuesOnTheRightEdges)
{
    MetricsRegistry::instance().resetForTest();
    Histogram *h = MetricsRegistry::instance().histogram(
        "rnr_test_edges_us");
    ASSERT_NE(h, nullptr);
    // One observation per edge of the first four buckets, plus both
    // sides of the 3|4 boundary.
    for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 7ull, 8ull})
        h->observe(v);
    EXPECT_EQ(h->count(), 7u);
    EXPECT_EQ(h->sum(), 25u);
    EXPECT_EQ(h->bucketCount(0), 1u); // {0}
    EXPECT_EQ(h->bucketCount(1), 1u); // {1}
    EXPECT_EQ(h->bucketCount(2), 2u); // {2, 3}
    EXPECT_EQ(h->bucketCount(3), 2u); // {4, 7}
    EXPECT_EQ(h->bucketCount(4), 1u); // {8}
    EXPECT_EQ(h->bucketCount(5), 0u);
}

TEST(Metrics, SnapshotTruncatesHistogramAfterLastNonEmptyBucket)
{
    MetricsRegistry::instance().resetForTest();
    Histogram *h = MetricsRegistry::instance().histogram(
        "rnr_test_truncate_us");
    ASSERT_NE(h, nullptr);
    h->observe(5); // bucket 3 (upper bound 7)
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    const MetricsSnapshot::Hist *hs = nullptr;
    for (const MetricsSnapshot::Hist &x : snap.histograms)
        if (x.name == "rnr_test_truncate_us")
            hs = &x;
    ASSERT_NE(hs, nullptr);
    ASSERT_EQ(hs->buckets.size(), 4u) << "buckets 0..3, nothing after";
    EXPECT_EQ(hs->buckets.back().first, 7u);
    EXPECT_EQ(hs->buckets.back().second, 1u);
}

TEST(Metrics, GoldenJsonExposition)
{
    // The registry is process-wide and never forgets a name, so pin the
    // exact rendering of this test's own entries rather than the whole
    // document.
    MetricsRegistry &reg = MetricsRegistry::instance();
    reg.resetForTest();
    reg.counter("rnr_golden_a_total")->add(3);
    reg.counter("rnr_golden_b_total");
    reg.gauge("rnr_golden_depth")->set(-2);
    Histogram *h = reg.histogram("rnr_golden_lat_us");
    h->observe(0);
    h->observe(3);
    h->observe(3);

    const std::string json = metricsJson();
    EXPECT_EQ(json.rfind("{\"schema\": \"rnr-metrics-v1\", "
                         "\"counters\": {",
                         0),
              0u)
        << json;
    for (const char *want :
         {"\"rnr_golden_a_total\": 3, \"rnr_golden_b_total\": 0",
          "\"gauges\": {",
          "\"rnr_golden_depth\": -2",
          "\"histograms\": {",
          "\"rnr_golden_lat_us\": {\"count\": 3, \"sum\": 6, "
          "\"buckets\": [[0, 1], [1, 0], [3, 2]]}"})
        EXPECT_NE(json.find(want), std::string::npos) << want << "\n"
                                                      << json;
    EXPECT_EQ(json.substr(json.size() - 2), "}}");
}

TEST(Metrics, LiveJsonExpositionRoundTripsThroughTheParser)
{
    MetricsRegistry::instance().resetForTest();
    Counter *c = MetricsRegistry::instance().counter(
        "rnr_test_roundtrip_total");
    ASSERT_NE(c, nullptr);
    c->add(42);

    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(metricsJson(), v, &err)) << err;
    const JsonValue *schema = v.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->text, "rnr-metrics-v1");
    const JsonValue *counters = v.find("counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue *rt = counters->find("rnr_test_roundtrip_total");
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(rt->asU64(), 42u);
}

TEST(Metrics, ResetForTestZeroesWithoutInvalidatingPointers)
{
    Counter *c = MetricsRegistry::instance().counter(
        "rnr_test_reset_total");
    ASSERT_NE(c, nullptr);
    c->add(7);
    MetricsRegistry::instance().resetForTest();
    EXPECT_EQ(c->value(), 0u);
    c->add(1); // the old pointer must still be live
    EXPECT_EQ(c->value(), 1u);
    EXPECT_EQ(MetricsRegistry::instance().counter("rnr_test_reset_total"),
              c);
}

} // namespace
} // namespace obs
} // namespace rnr
