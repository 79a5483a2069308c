/**
 * @file
 * Telemetry-instrumented runs and the one-cell explain document:
 *
 *  - a sampled run produces bit-identical IterStats to an unsampled run
 *    (the "observation only" guarantee);
 *  - the harvested blob carries the RnR replay-lane series (n_pace,
 *    metadata-buffer fill) plus the memory-system occupancy series;
 *  - explainJson emits a parseable rnr-explain-v2 document with every
 *    part of the cell (null for what the cell ran without);
 *  - explainMismatch passes a probed run and names each counter a
 *    probe disagrees with.
 */
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "harness/explain.h"
#include "harness/json_parse.h"
#include "harness/runner.h"
#include "sim/attrib.h"
#include "sim/timeseries.h"

namespace rnr {
namespace {

ExperimentConfig
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

struct ReportFixture : ::testing::Test {
    static void
    SetUpTestSuite()
    {
        // Reports and instrumented runs must not be polluted by (or
        // pollute) any ambient caches.
        setenv("RNR_CACHE", "0", 1);
        setenv("RNR_TRACE_STORE", "0", 1);
        setenv("RNR_PROGRESS", "0", 1);
        unsetenv("RNR_OBS");
    }
};

TEST_F(ReportFixture, SampledRunIsBitIdenticalToUnsampled)
{
    const ExperimentConfig cfg = rnrConfig();

    const ExperimentResult plain =
        runExperimentUncached(cfg);

    TelemetrySampler tm(256); // aggressive period: ~32x denser than the
                              // default, to maximise observable skew
    const ExperimentResult sampled =
        runExperimentUncached(cfg, {.telemetry = &tm});

    ASSERT_EQ(sampled.iterations.size(), plain.iterations.size());
    for (std::size_t i = 0; i < plain.iterations.size(); ++i) {
        const IterStats &a = plain.iterations[i];
        const IterStats &b = sampled.iterations[i];
#define RNR_CHECK_FIELD(type, name)                                          \
        EXPECT_EQ(a.name, b.name) << "field " #name " iteration " << i;
        RNR_ITER_STAT_FIELDS(RNR_CHECK_FIELD)
#undef RNR_CHECK_FIELD
    }
    EXPECT_EQ(sampled.seq_table_bytes, plain.seq_table_bytes);
    EXPECT_EQ(sampled.div_table_bytes, plain.div_table_bytes);

    // The unsampled run carries no blob; the sampled one does.
    EXPECT_EQ(plain.telemetry, nullptr);
    ASSERT_NE(sampled.telemetry, nullptr);
    EXPECT_GT(sampled.telemetry->samples_taken, 0u);
}

TEST_F(ReportFixture, BlobCarriesTheReplayLaneAndMemorySeries)
{
    const ExperimentConfig cfg = rnrConfig();
    TelemetrySampler tm(512);
    const ExperimentResult r =
        runExperimentUncached(cfg, {.telemetry = &tm});
    ASSERT_NE(r.telemetry, nullptr);
    const TelemetryBlob &blob = *r.telemetry;

    // The RnR replay lane, per core.
    EXPECT_NE(blob.findSeries("rnr.core0.n_pace"), nullptr);
    EXPECT_NE(blob.findSeries("rnr.core0.seq_buffer_bytes"), nullptr);
    EXPECT_NE(blob.findSeries("rnr.core0.div_buffer_bytes"), nullptr);
    EXPECT_NE(blob.findSeries("rnr.core1.n_pace"), nullptr);

    // The memory system and per-core IPC.
    std::size_t mshr = 0, ipc = 0;
    for (const TelemetrySeriesBlob &s : blob.series) {
        if (s.name.find("mshr") != std::string::npos)
            ++mshr;
        if (s.name.find("ipc") != std::string::npos)
            ++ipc;
        // Points are in non-decreasing tick order.
        for (std::size_t i = 1; i < s.points.size(); ++i)
            EXPECT_GE(s.points[i].tick, s.points[i - 1].tick) << s.name;
    }
    EXPECT_GT(mshr, 0u);
    EXPECT_GT(ipc, 0u);

    // The acceptance bar: at least six distinct series.
    EXPECT_GE(blob.series.size(), 6u);

    // And the latency distributions were recorded.
    EXPECT_FALSE(blob.histograms.empty());
}

/** Null-safe member path into a parsed document. */
const JsonValue *
at(const JsonValue &v, std::initializer_list<const char *> path)
{
    const JsonValue *p = &v;
    for (const char *key : path)
        if (p && !(p = p->find(key)))
            break;
    return p;
}

struct ExplainFixture : ReportFixture {};

TEST_F(ExplainFixture, DocumentCarriesEveryPartOfTheCell)
{
    const ExperimentConfig cfg = rnrConfig();
    TelemetrySampler tm;
    AttribCollector atc;
    const ExperimentResult r =
        runExperimentUncached(cfg, {.telemetry = &tm, .attrib = &atc});
    const ExperimentResult base = runBaseline(cfg);
    EXPECT_EQ(explainMismatch(r), "");

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(explainJson(r, &base), doc, &error)) << error;
    ASSERT_NE(at(doc, {"schema"}), nullptr);
    EXPECT_EQ(at(doc, {"schema"})->text, "rnr-explain-v2");
    ASSERT_NE(at(doc, {"cell", "key"}), nullptr);
    EXPECT_EQ(at(doc, {"cell", "key"})->text, cfg.key());
    ASSERT_NE(at(doc, {"cell", "iterations"}), nullptr);
    EXPECT_EQ(at(doc, {"cell", "iterations"})->items.size(),
              cfg.iterations);
    ASSERT_NE(at(doc, {"baseline", "config", "prefetcher"}), nullptr);
    EXPECT_EQ(at(doc, {"baseline", "config", "prefetcher"})->text, "none");

    for (const char *m : {"mpki", "accuracy", "storage_overhead",
                          "timeliness", "speedup", "coverage",
                          "traffic_overhead", "record_overhead"})
        EXPECT_NE(at(doc, {"metrics", m}), nullptr) << m;
    EXPECT_GT(at(doc, {"metrics", "speedup"})->asDouble(), 0.0);

    // The window rows re-sum to their total, which matches the counters.
    const JsonValue *rows = at(doc, {"windows", "rows"});
    ASSERT_TRUE(rows && !rows->items.empty());
    std::uint64_t ontime = 0, classified = 0;
    for (const JsonValue &row : rows->items) {
        ontime += row.find("ontime")->asU64();
        for (const char *c : {"ontime", "early", "late", "out_of_window"})
            classified += row.find(c)->asU64();
    }
    EXPECT_EQ(ontime, at(doc, {"windows", "total", "ontime"})->asU64());
    std::uint64_t counters = 0;
    for (const IterStats &it : r.iterations)
        counters += it.rnr_ontime + it.rnr_early + it.rnr_late +
                    it.rnr_out_of_window;
    EXPECT_EQ(classified, counters);
    EXPECT_GT(classified, 0u);
    EXPECT_EQ(rows->items.size(), r.attrib->windows.size());
    EXPECT_EQ(at(doc, {"windows", "events_total"}), nullptr);

    ASSERT_NE(at(doc, {"attrib", "schema"}), nullptr);
    EXPECT_EQ(at(doc, {"attrib", "schema"})->text, "rnr-attrib-v2");
    EXPECT_EQ(at(doc, {"attrib", "windows"}), nullptr);
    EXPECT_EQ(at(doc, {"attrib", "totals", "issued"})->asU64(),
              r.attrib->totals.issued);
    const JsonValue *series = at(doc, {"telemetry", "series"});
    ASSERT_NE(series, nullptr);
    EXPECT_GE(series->items.size(), 6u);
}

TEST_F(ExplainFixture, CellWithoutProbesOrBaselineHasNullParts)
{
    ExperimentResult r;
    r.config = rnrConfig();
    r.iterations.resize(2);
    EXPECT_EQ(explainMismatch(r), "");

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(explainJson(r, nullptr), doc, &error)) << error;
    for (const char *part : {"baseline", "windows", "attrib", "telemetry"}) {
        ASSERT_NE(doc.find(part), nullptr) << part;
        EXPECT_TRUE(doc.find(part)->isNull()) << part;
    }
    EXPECT_NE(at(doc, {"metrics", "mpki"}), nullptr);
    EXPECT_EQ(at(doc, {"metrics", "speedup"}), nullptr);
}

TEST_F(ExplainFixture, MismatchNamesEveryProbeThatDisagrees)
{
    ExperimentResult r;
    r.iterations.resize(1);
    r.iterations[0].rnr_late = 1;

    // The blob saw the late prefetch, in window 3: both agree.
    auto blob = std::make_shared<AttribBlob>();
    blob->rnr_late = 1;
    WindowDiag w3;
    w3.window = 3;
    w3.late = 1;
    blob->windows.push_back(w3);
    r.attrib = blob;
    EXPECT_EQ(explainMismatch(r), "");

    // Now attribution also saw an issue the counters never did, and
    // missed the late one its window row still holds.
    blob->totals.issued = 1;
    blob->rnr_late = 0;
    const std::string bad = explainMismatch(r);
    EXPECT_NE(bad.find("attrib issued 1 != counters 0"), std::string::npos)
        << bad;
    EXPECT_NE(bad.find("attrib late 0 != counters 1"), std::string::npos)
        << bad;
    EXPECT_EQ(bad.find("windows"), std::string::npos) << bad;

    // The counters lose the late prefetch; the window row keeps it.
    r.iterations[0].rnr_late = 0;
    EXPECT_NE(explainMismatch(r).find("windows late 1 != counters 0"),
              std::string::npos);
}
} // namespace
} // namespace rnr
