#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sim/timeseries.h"

namespace rnr {
namespace {

// ---- TimeSeries: Perfetto-style auto-downsampling ----

TEST(TimeSeriesTest, KeepsEverythingBelowCapacity)
{
    TimeSeries s(8);
    for (Tick t = 0; t < 8; ++t)
        s.push(t * 10, t);
    ASSERT_EQ(s.points().size(), 8u);
    EXPECT_EQ(s.keepEvery(), 1u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(s.points()[i].tick, static_cast<Tick>(i * 10));
        EXPECT_EQ(s.points()[i].value, i);
    }
}

TEST(TimeSeriesTest, CompactsToEvenIndicesWhenFull)
{
    TimeSeries s(8);
    for (Tick t = 0; t < 9; ++t) // one past capacity
        s.push(t, t);
    // Compaction kept offers {0,2,4,6}; offer 8 is aligned to the new
    // factor 2, so it was retained too.
    ASSERT_EQ(s.points().size(), 5u);
    EXPECT_EQ(s.keepEvery(), 2u);
    const std::uint64_t expect[] = {0, 2, 4, 6, 8};
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(s.points()[i].value, expect[i]);
}

TEST(TimeSeriesTest, RepeatedCompactionStaysAligned)
{
    TimeSeries s(4);
    const std::uint64_t n = 64;
    for (std::uint64_t t = 0; t < n; ++t)
        s.push(t, t);
    EXPECT_LE(s.points().size(), 4u);
    EXPECT_EQ(s.offered(), n);
    // Invariant: a sample survives iff its offer index is a multiple of
    // the final decimation factor — and the survivors are in order.
    for (std::size_t i = 0; i < s.points().size(); ++i)
        EXPECT_EQ(s.points()[i].value, i * s.keepEvery());
}

TEST(TimeSeriesTest, SpansWholeRunAfterDownsampling)
{
    TimeSeries s(16);
    for (std::uint64_t t = 0; t < 1000; ++t)
        s.push(t, t);
    // First point is always offer 0; the last retained point is within
    // one decimation stride of the end, so the series spans the run.
    ASSERT_FALSE(s.points().empty());
    EXPECT_EQ(s.points().front().value, 0u);
    EXPECT_GE(s.points().back().value + s.keepEvery(), 1000u);
}

TEST(TimeSeriesTest, CapacityClampedToTwo)
{
    TimeSeries s(0);
    EXPECT_EQ(s.capacity(), 2u);
    s.push(0, 1);
    s.push(1, 2);
    s.push(2, 3);
    EXPECT_LE(s.points().size(), 2u);
}

// ---- Gauge ----

TEST(GaugeTest, SubSaturatesAtZero)
{
    Gauge g;
    g.set(5);
    g.sub(3);
    EXPECT_EQ(g.value(), 2u);
    g.sub(10);
    EXPECT_EQ(g.value(), 0u);
    g.add(7);
    EXPECT_EQ(g.value(), 7u);
}

// ---- Log2Histogram ----

TEST(Log2HistogramTest, BucketBoundaries)
{
    // bucket 0 = {0}, bucket i = [2^(i-1), 2^i).
    EXPECT_EQ(Log2Histogram::bucketLow(0), 0u);
    EXPECT_EQ(Log2Histogram::bucketHigh(0), 0u);
    EXPECT_EQ(Log2Histogram::bucketLow(1), 1u);
    EXPECT_EQ(Log2Histogram::bucketHigh(1), 1u);
    EXPECT_EQ(Log2Histogram::bucketLow(5), 16u);
    EXPECT_EQ(Log2Histogram::bucketHigh(5), 31u);
}

TEST(Log2HistogramTest, RecordsIntoBitWidthBucket)
{
    Log2Histogram h;
    h.record(0);   // bucket 0
    h.record(1);   // bucket 1
    h.record(16);  // bucket 5
    h.record(31);  // bucket 5
    h.record(32);  // bucket 6
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 80u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(5), 2u);
    EXPECT_EQ(h.bucket(6), 1u);
    EXPECT_EQ(h.maxBucket(), 7u);
    EXPECT_DOUBLE_EQ(h.mean(), 16.0);
}

TEST(Log2HistogramTest, EmptyHistogramIsWellDefined)
{
    const Log2Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.maxBucket(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

// ---- TelemetrySampler ----

TEST(TelemetrySamplerTest, SamplesLevelProbesAtThePeriod)
{
    TelemetrySampler tm(100);
    std::uint64_t level = 7;
    tm.addSeries("q", [&level] { return level; });

    tm.maybeSample(0); // fires: next_ starts at 0
    level = 9;
    tm.maybeSample(50); // below period: no sample
    tm.maybeSample(100); // fires
    EXPECT_EQ(tm.samplesTaken(), 2u);

    const TimeSeries *s = tm.findSeries("q");
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->points().size(), 2u);
    EXPECT_EQ(s->points()[0].value, 7u);
    EXPECT_EQ(s->points()[1].value, 9u);
}

TEST(TelemetrySamplerTest, RateSeriesScalesDeltaPerCycle)
{
    TelemetrySampler tm(100);
    std::uint64_t instrs = 0;
    tm.addRate("ipc_milli", [&instrs] { return instrs; }, 1000);

    tm.maybeSample(0); // establishes the baseline; rate 0
    instrs = 150;
    tm.maybeSample(100); // 150 instrs / 100 cycles = 1500 milli-IPC
    instrs = 150;
    tm.maybeSample(200); // no progress: rate 0

    const TimeSeries *s = tm.findSeries("ipc_milli");
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->points().size(), 3u);
    EXPECT_EQ(s->points()[0].value, 0u);
    EXPECT_EQ(s->points()[1].value, 1500u);
    EXPECT_EQ(s->points()[2].value, 0u);
}

TEST(TelemetrySamplerTest, SeriesReferencesSurviveLaterRegistrations)
{
    TelemetrySampler tm(10);
    TimeSeries &first = tm.addSeries("a", [] { return 1u; });
    for (int i = 0; i < 100; ++i)
        tm.addSeries("s" + std::to_string(i), [] { return 0u; });
    tm.sample(0);
    // `first` must still be the live series, not a dangling reference.
    EXPECT_EQ(&first, tm.findSeries("a"));
    EXPECT_EQ(first.points().size(), 1u);
}

TEST(TelemetrySamplerTest, HistogramIsCreateOrGet)
{
    TelemetrySampler tm(10);
    Log2Histogram &h1 = tm.histogram("lat");
    h1.record(5);
    Log2Histogram &h2 = tm.histogram("lat");
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(h2.count(), 1u);
}

TEST(TelemetrySamplerTest, HarvestCopiesSeriesAndNonEmptyHistograms)
{
    TelemetrySampler tm(100);
    std::uint64_t v = 3;
    tm.addSeries("depth", [&v] { return v; });
    tm.histogram("hot").record(42);
    tm.histogram("cold"); // never recorded: dropped from the blob
    tm.maybeSample(0);

    const TelemetryBlob blob = tm.harvest();
    EXPECT_EQ(blob.sample_cycles, 100u);
    EXPECT_EQ(blob.samples_taken, 1u);
    ASSERT_EQ(blob.series.size(), 1u);
    EXPECT_EQ(blob.series[0].name, "depth");
    ASSERT_EQ(blob.series[0].points.size(), 1u);
    EXPECT_EQ(blob.series[0].points[0].value, 3u);

    ASSERT_EQ(blob.histograms.size(), 1u);
    EXPECT_EQ(blob.histograms[0].name, "hot");
    EXPECT_EQ(blob.histograms[0].count, 1u);
    ASSERT_EQ(blob.histograms[0].buckets.size(), 1u);
    EXPECT_EQ(blob.histograms[0].buckets[0].first, 6u); // bit_width(42)

    EXPECT_NE(blob.findSeries("depth"), nullptr);
    EXPECT_EQ(blob.findSeries("missing"), nullptr);
    EXPECT_NE(blob.findHistogram("hot"), nullptr);
    EXPECT_EQ(blob.findHistogram("cold"), nullptr);
}

} // namespace
} // namespace rnr
