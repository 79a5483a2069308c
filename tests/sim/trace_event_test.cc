/**
 * @file
 * Tests for the event-tracing subsystem (sim/trace_event.h):
 *
 *  - ring semantics: bounded, oldest-first iteration, loss accounting;
 *  - per-window aggregation at emit time (exact across ring wrap);
 *  - the replay diagnostics report and its column totals;
 *  - the Chrome trace-event JSON schema (metadata + event records);
 *  - the observation-only guarantee: a traced simulation produces
 *    bit-identical IterStats to an untraced one;
 *  - reconciliation: report totals equal the summed iteration rnr_*
 *    counters exactly (shared emit sites).
 */
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "harness/runner.h"
#include "sim/trace_event.h"

namespace rnr {
namespace {

TraceEvent
makeEvent(TraceEventType type, Tick tick, std::uint64_t arg = 0,
          std::uint32_t window = 0)
{
    TraceEvent e;
    e.tick = tick;
    e.arg = arg;
    e.window = window;
    e.type = type;
    return e;
}

TEST(TraceRingTest, HoldsEventsInOrderBelowCapacity)
{
    TraceRing ring(4);
    for (Tick t = 0; t < 3; ++t)
        ring.push(makeEvent(TraceEventType::CacheMiss, t));
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.total(), 3u);
    EXPECT_EQ(ring.overwritten(), 0u);
    for (std::size_t i = 0; i < ring.size(); ++i)
        EXPECT_EQ(ring.at(i).tick, i);
}

TEST(TraceRingTest, WrapOverwritesOldestAndCountsLoss)
{
    TraceRing ring(4);
    for (Tick t = 0; t < 10; ++t)
        ring.push(makeEvent(TraceEventType::CacheMiss, t));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.total(), 10u);
    EXPECT_EQ(ring.overwritten(), 6u);
    // Residents are the newest four, returned oldest first.
    for (std::size_t i = 0; i < ring.size(); ++i)
        EXPECT_EQ(ring.at(i).tick, 6 + i) << "slot " << i;
}

TEST(TraceRingTest, ZeroRequestedCapacityClampsToOne)
{
    TraceRing ring(0);
    ring.push(makeEvent(TraceEventType::CacheMiss, 1));
    ring.push(makeEvent(TraceEventType::CacheMiss, 2));
    EXPECT_EQ(ring.capacity(), 1u);
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring.at(0).tick, 2u);
}

TEST(TraceEventTest, EveryTypeHasADistinctName)
{
    for (unsigned a = 0; a < kTraceEventTypeCount; ++a) {
        const std::string name =
            traceEventName(static_cast<TraceEventType>(a));
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "?");
        for (unsigned b = a + 1; b < kTraceEventTypeCount; ++b)
            EXPECT_NE(name,
                      traceEventName(static_cast<TraceEventType>(b)))
                << "types " << a << " and " << b;
    }
}

TEST(TraceCollectorTest, TrackLayoutFollowsCoreCount)
{
    TraceCollector tr(4, 16);
    EXPECT_EQ(tr.cores(), 4u);
    EXPECT_EQ(tr.memTrack(), 4u);
    EXPECT_EQ(tr.rnrTrack(), 5u);
    EXPECT_EQ(tr.trackCount(), 6u);
    for (std::uint16_t t = 0; t < tr.trackCount(); ++t)
        EXPECT_EQ(tr.ring(t).capacity(), 16u);
}

TEST(TraceCollectorTest, AggregatesSurviveRingWrap)
{
    // 2-event rings; the aggregates must still count every emit.
    TraceCollector tr(1, 2);
    const std::uint16_t rnr = tr.rnrTrack();
    tr.emit(rnr, TraceEventType::WindowOpen, 10, 0, /*pace=*/7,
            /*window=*/3);
    for (Tick t = 11; t < 16; ++t)
        tr.emit(rnr, TraceEventType::PfOntime, t, 0, 0, 3);
    tr.emit(rnr, TraceEventType::PfEarly, 16, 0, 0, 3);
    tr.emit(rnr, TraceEventType::PfLate, 17, 0, 0, 3);
    tr.emit(rnr, TraceEventType::PfOutOfWindow, 18, 0, 0, 3);
    tr.emit(rnr, TraceEventType::MetaRefillStall, 19, 0, /*cycles=*/42,
            3);

    // 10 emits into a 2-slot ring: 2 resident, 8 lost.
    EXPECT_EQ(tr.ring(rnr).size(), 2u);
    EXPECT_EQ(tr.ring(rnr).overwritten(), 8u);

    ASSERT_EQ(tr.windowTable().size(), 4u);
    const WindowDiag &w = tr.windowTable()[3];
    EXPECT_EQ(w.window, 3u);
    EXPECT_EQ(w.pace, 7u);
    EXPECT_EQ(w.ontime, 5u);
    EXPECT_EQ(w.early, 1u);
    EXPECT_EQ(w.late, 1u);
    EXPECT_EQ(w.out_of_window, 1u);
    EXPECT_EQ(w.refill_stalls, 1u);
}

TEST(TraceCollectorTest, AggregateOnlyHooksBypassTheRings)
{
    TraceCollector tr(1, 8);
    tr.countWindowDemand(2);
    tr.countWindowDemand(2);
    tr.countWindowIssue(2);
    EXPECT_EQ(tr.eventsTotal(), 0u);
    ASSERT_EQ(tr.windowTable().size(), 3u);
    EXPECT_EQ(tr.windowTable()[2].demands, 2u);
    EXPECT_EQ(tr.windowTable()[2].issued, 1u);
}

TEST(TraceCollectorTest, ReportSkipsUntouchedWindowsAndSumsTotals)
{
    TraceCollector tr(1, 8);
    const std::uint16_t rnr = tr.rnrTrack();
    // Touch windows 0 and 4; leave 1..3 untouched (dense table rows).
    tr.emit(rnr, TraceEventType::PfOntime, 1, 0, 0, 0);
    tr.emit(rnr, TraceEventType::PfEarly, 2, 0, 0, 4);
    tr.countWindowDemand(4);
    tr.countWindowIssue(0);

    const ReplayDiagnostics d = buildReplayDiagnostics(tr);
    ASSERT_EQ(d.windows.size(), 2u);
    EXPECT_EQ(d.windows[0].window, 0u);
    EXPECT_EQ(d.windows[1].window, 4u);
    EXPECT_EQ(d.total.ontime, 1u);
    EXPECT_EQ(d.total.early, 1u);
    EXPECT_EQ(d.total.demands, 1u);
    EXPECT_EQ(d.total.issued, 1u);

    const std::string text = formatReplayDiagnostics(d);
    EXPECT_NE(text.find("window"), std::string::npos);
    EXPECT_NE(text.find("total"), std::string::npos);
    EXPECT_EQ(text.back(), '\n');
}

TEST(TraceEventTest, ChromeJsonCarriesMetadataAndTypedEvents)
{
    TraceCollector tr(2, 8);
    tr.emit(0, TraceEventType::CacheMiss, 100, 0x40, /*level=*/1);
    tr.emit(tr.memTrack(), TraceEventType::CacheFill, 200, 0x40,
            /*llc+pf=*/2 + 4);
    tr.emit(tr.rnrTrack(), TraceEventType::MetaRefillStall, 300, 0,
            /*cycles=*/17, /*window=*/5);
    tr.emit(tr.rnrTrack(), TraceEventType::ReplayStart, 400, 0, 123);

    const std::string json = chromeTraceJson(tr);

    // Top-level schema.
    EXPECT_EQ(json.find("{"), 0u);
    EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(json.find("\"otherData\""), std::string::npos);
    EXPECT_NE(json.find("\"events_total\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"cores\": 2"), std::string::npos);

    // One thread_name metadata record per track.
    EXPECT_NE(json.find("\"name\": \"core 0\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"core 1\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"mem (LLC+DRAM)\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"rnr replay\""), std::string::npos);

    // Cache events fold the level (and prefetch bit) into the name.
    EXPECT_NE(json.find("\"name\": \"l2_miss\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"llc_fill_pf\""), std::string::npos);

    // Stalls are spans; everything else is an instant.
    EXPECT_NE(json.find("\"ph\": \"X\", \"dur\": 17"), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"replay_start\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\", \"s\": \"t\""),
              std::string::npos);

    // Braces and brackets balance (cheap well-formedness proxy; the CI
    // job runs a real JSON parser over the tool's output).
    long braces = 0, brackets = 0;
    for (char c : json) {
        braces += c == '{' ? 1 : c == '}' ? -1 : 0;
        brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
        ASSERT_GE(braces, 0);
        ASSERT_GE(brackets, 0);
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

// ---- End-to-end: tracing observes the simulation without touching it.

struct TracedRunFixture : ::testing::Test {
    static void
    SetUpTestSuite()
    {
        setenv("RNR_CACHE", "0", 1);
        unsetenv("RNR_OBS");
    }

    static ExperimentConfig
    rnrConfig()
    {
        ExperimentConfig cfg;
        cfg.app = "pagerank";
        cfg.input = "amazon";
        cfg.iterations = 2;
        cfg.cores = 2;
        cfg.prefetcher = PrefetcherKind::Rnr;
        return cfg;
    }
};

TEST_F(TracedRunFixture, TracedRunIsBitIdenticalToUntraced)
{
    const ExperimentConfig cfg = rnrConfig();
    const ExperimentResult plain = runExperimentUncached(cfg);
    TraceCollector tr(cfg.cores, 4096);
    const ExperimentResult traced =
        runExperimentUncached(cfg, {.trace = &tr});

    EXPECT_GT(tr.eventsTotal(), 0u) << "collector saw no events";
    ASSERT_EQ(plain.iterations.size(), traced.iterations.size());
    for (std::size_t i = 0; i < plain.iterations.size(); ++i) {
#define RNR_CHECK_FIELD(type, name)                                         \
        EXPECT_EQ(plain.iterations[i].name, traced.iterations[i].name)      \
            << "field " #name " diverged in iteration " << i;
        RNR_ITER_STAT_FIELDS(RNR_CHECK_FIELD)
#undef RNR_CHECK_FIELD
    }
    EXPECT_EQ(plain.seq_table_bytes, traced.seq_table_bytes);
    EXPECT_EQ(plain.div_table_bytes, traced.div_table_bytes);
}

TEST_F(TracedRunFixture, ReportReconcilesExactlyWithIterationCounters)
{
    const ExperimentConfig cfg = rnrConfig();
    // Tiny rings force heavy wrap; the report must stay exact anyway.
    TraceCollector tr(cfg.cores, 64);
    const ExperimentResult res =
        runExperimentUncached(cfg, {.trace = &tr});
    EXPECT_GT(tr.eventsOverwritten(), 0u)
        << "rings never wrapped; grow the workload or shrink the rings";

    std::uint64_t ontime = 0, early = 0, late = 0, oow = 0;
    for (const IterStats &it : res.iterations) {
        ontime += it.rnr_ontime;
        early += it.rnr_early;
        late += it.rnr_late;
        oow += it.rnr_out_of_window;
    }
    ASSERT_GT(ontime + early + late + oow, 0u)
        << "replay never classified a prefetch";

    const ReplayDiagnostics d = buildReplayDiagnostics(tr);
    EXPECT_EQ(d.total.ontime, ontime);
    EXPECT_EQ(d.total.early, early);
    EXPECT_EQ(d.total.late, late);
    EXPECT_EQ(d.total.out_of_window, oow);

    // The aggregate-only hooks fed the remaining report columns.
    EXPECT_GT(d.total.demands, 0u);
    EXPECT_GT(d.total.issued, 0u);
    ASSERT_FALSE(d.windows.empty());

    // Every classified prefetch is attributed to a real window row.
    std::uint64_t row_sum = 0;
    for (const WindowDiag &w : d.windows)
        row_sum += w.ontime + w.early + w.late + w.out_of_window;
    EXPECT_EQ(row_sum, ontime + early + late + oow);
}

TEST_F(TracedRunFixture, RnrLifecycleLandsOnTheRnrTrack)
{
    const ExperimentConfig cfg = rnrConfig();
    // Large enough that the rnr track (~125k events for this config)
    // never wraps; the busier core/mem tracks are allowed to.
    TraceCollector tr(cfg.cores, 1u << 17);
    runExperimentUncached(cfg, {.trace = &tr});

    bool saw_record_start = false, saw_replay_start = false;
    bool saw_window_open = false, saw_meta_refill = false;
    const TraceRing &ring = tr.ring(tr.rnrTrack());
    ASSERT_EQ(ring.overwritten(), 0u)
        << "rnr ring wrapped; early lifecycle events were lost";
    for (std::size_t i = 0; i < ring.size(); ++i) {
        switch (ring.at(i).type) {
          case TraceEventType::RecordStart: saw_record_start = true; break;
          case TraceEventType::ReplayStart: saw_replay_start = true; break;
          case TraceEventType::WindowOpen: saw_window_open = true; break;
          case TraceEventType::MetaRefill: saw_meta_refill = true; break;
          default: break;
        }
    }
    EXPECT_TRUE(saw_record_start);
    EXPECT_TRUE(saw_replay_start);
    EXPECT_TRUE(saw_window_open);
    EXPECT_TRUE(saw_meta_refill);

    // Core and mem tracks saw cache traffic too.
    EXPECT_GT(tr.ring(0).total(), 0u);
    EXPECT_GT(tr.ring(tr.memTrack()).total(), 0u);
}

} // namespace
} // namespace rnr
