/**
 * @file
 * Telemetry-instrumented runs and the report generator:
 *
 *  - a sampled run produces bit-identical IterStats to an unsampled run
 *    (the tentpole "observation only" guarantee);
 *  - the harvested blob carries the RnR replay-lane series (n_pace,
 *    metadata-buffer fill) plus the memory-system occupancy series;
 *  - buildSweepReport + reportJson emit a valid rnr-report-v2 document
 *    (telemetry plus the embedded rnr-attrib-v1 attribution object);
 *  - reportHtml is one self-contained page (inline SVG, no fetches);
 *  - the json_parse DOM reader handles the formats we feed it.
 */
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/json_parse.h"
#include "harness/report.h"
#include "harness/runner.h"
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

TEST_F(ReportFixture, ReportJsonIsValidAndCompleteRnrReportV2)
{
    ExperimentConfig none = rnrConfig();
    none.prefetcher = PrefetcherKind::None;
    const SweepReport rep =
        buildSweepReport({none, rnrConfig()}, "unit", 1024);
    ASSERT_EQ(rep.cells.size(), 2u);
    EXPECT_EQ(rep.sample_cycles, 1024u);

    const std::string json = reportJson(rep);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(json, doc, &error)) << error;

    const JsonValue *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->text, "rnr-report-v2");
    EXPECT_EQ(doc.find("label")->text, "unit");

    const JsonValue *cells = doc.find("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_TRUE(cells->isArray());
    ASSERT_EQ(cells->items.size(), 2u);

    for (const JsonValue &cell : cells->items) {
        EXPECT_NE(cell.find("key"), nullptr);
        EXPECT_NE(cell.find("config"), nullptr);
        EXPECT_NE(cell.find("host"), nullptr);
        EXPECT_NE(cell.find("metrics"), nullptr);
        const JsonValue *tel = cell.find("telemetry");
        ASSERT_NE(tel, nullptr);
        const JsonValue *series = tel->find("series");
        ASSERT_NE(series, nullptr);
        EXPECT_GE(series->items.size(), 6u);

        // v2: every cell embeds its attribution object.
        const JsonValue *attrib = cell.find("attrib");
        ASSERT_NE(attrib, nullptr);
        const JsonValue *aschema = attrib->find("schema");
        ASSERT_NE(aschema, nullptr);
        EXPECT_EQ(aschema->text, "rnr-attrib-v1");
        EXPECT_NE(attrib->find("totals"), nullptr);
        EXPECT_NE(attrib->find("sites"), nullptr);
        EXPECT_NE(attrib->find("regions"), nullptr);
        EXPECT_NE(attrib->find("pollution_filter"), nullptr);
    }

    // The RnR cell's replay lane made it into the document, and the
    // prefetcher cell has baseline-relative metrics (cell order follows
    // the config order, so cell 1 is the RnR one).
    const JsonValue &rnr_cell = cells->items[1];
    bool has_pace = false, has_fill = false;
    for (const JsonValue &s :
         rnr_cell.find("telemetry")->find("series")->items) {
        const JsonValue *name = s.find("name");
        ASSERT_NE(name, nullptr);
        if (name->text.find("n_pace") != std::string::npos)
            has_pace = true;
        if (name->text.find("buffer_bytes") != std::string::npos)
            has_fill = true;
    }
    EXPECT_TRUE(has_pace);
    EXPECT_TRUE(has_fill);
    const JsonValue *metrics = rnr_cell.find("metrics");
    EXPECT_NE(metrics->find("speedup"), nullptr);
    EXPECT_NE(metrics->find("coverage"), nullptr);
    EXPECT_GT(metrics->find("speedup")->asDouble(), 0.0);

    // The RnR cell's attribution saw real prefetches, and its replay
    // lane populated the rnr class splits.
    const JsonValue *attrib = rnr_cell.find("attrib");
    ASSERT_NE(attrib, nullptr);
    EXPECT_GT(attrib->find("totals")->find("issued")->asU64(), 0u);
    const JsonValue *rnr = attrib->find("rnr");
    ASSERT_NE(rnr, nullptr);
    const std::uint64_t classified = rnr->find("ontime")->asU64() +
                                     rnr->find("early")->asU64() +
                                     rnr->find("late")->asU64() +
                                     rnr->find("out_of_window")->asU64();
    EXPECT_GT(classified, 0u);
}

TEST_F(ReportFixture, HtmlIsSelfContained)
{
    const SweepReport rep = buildSweepReport({rnrConfig()}, "html", 2048);
    const std::string html = reportHtml(rep);

    EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
    EXPECT_NE(html.find("<svg"), std::string::npos);     // sparklines
    EXPECT_NE(html.find("n_pace"), std::string::npos);   // replay lane
    // v2 dashboards: the attribution section with its per-site table,
    // the region heatmap, and the per-region table.
    EXPECT_NE(html.find("Prefetch attribution"), std::string::npos);
    EXPECT_NE(html.find("class=\"attrib-sites\""), std::string::npos);
    EXPECT_NE(html.find("class=\"heatmap\""), std::string::npos);
    EXPECT_NE(html.find("class=\"attrib-regions\""), std::string::npos);
    // Self-contained: no external fetches of any kind.
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
    EXPECT_EQ(html.find("<script src"), std::string::npos);
    EXPECT_EQ(html.find("<link"), std::string::npos);
}

TEST_F(ReportFixture, WriteReportEmitsBothFilesAtomically)
{
    const std::string prefix = ::testing::TempDir() + "report_test_out";
    std::remove((prefix + ".json").c_str());
    std::remove((prefix + ".html").c_str());

    const SweepReport rep = buildSweepReport({rnrConfig()}, "files");
    ASSERT_TRUE(writeReport(prefix, rep));

    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJsonFile(prefix + ".json", doc, &error)) << error;

    std::ifstream html(prefix + ".html");
    ASSERT_TRUE(html.good());
    std::stringstream buf;
    buf << html.rdbuf();
    EXPECT_NE(buf.str().find("<svg"), std::string::npos);

    std::remove((prefix + ".json").c_str());
    std::remove((prefix + ".html").c_str());
}

// ---- json_parse: the DOM reader under the loaders and the gate ----

TEST(JsonParseTest, ParsesScalarsArraysAndObjects)
{
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson(
        R"({"a": 1, "b": [true, null, "x\n"], "c": {"d": -2.5}})", v,
        &error))
        << error;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("a")->asU64(), 1u);
    const JsonValue *b = v.find("b");
    ASSERT_TRUE(b->isArray());
    ASSERT_EQ(b->items.size(), 3u);
    EXPECT_TRUE(b->items[0].boolean);
    EXPECT_TRUE(b->items[1].isNull());
    EXPECT_EQ(b->items[2].text, "x\n");
    EXPECT_DOUBLE_EQ(v.find("c")->find("d")->asDouble(), -2.5);
}

TEST(JsonParseTest, U64CountersRoundTripExactly)
{
    // 2^63 + 1 is not representable as a double; the raw-token design
    // must preserve it exactly.
    JsonValue v;
    ASSERT_TRUE(parseJson(R"({"n": 9223372036854775809})", v));
    EXPECT_EQ(v.find("n")->asU64(), 9223372036854775809ull);
}

TEST(JsonParseTest, ScientificNotationAndNegatives)
{
    JsonValue v;
    ASSERT_TRUE(parseJson(R"({"sci": 5.0e6, "neg": -7})", v));
    EXPECT_DOUBLE_EQ(v.find("sci")->asDouble(), 5.0e6);
    EXPECT_EQ(v.find("sci")->asU64(), 5000000u);
    EXPECT_EQ(v.find("neg")->asU64(), 0u); // negatives truncate to 0
    EXPECT_DOUBLE_EQ(v.find("neg")->asDouble(), -7.0);
}

TEST(JsonParseTest, RejectsMalformedInput)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson("{", v, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseJson("{\"a\": 1,}", v, &error));
    EXPECT_FALSE(parseJson("[1, 2] trailing", v, &error));
    EXPECT_FALSE(parseJson("", v, &error));
    EXPECT_FALSE(parseJson("{\"unterminated", v, &error));
}

TEST(JsonParseTest, DepthLimitStopsRecursionBombs)
{
    std::string bomb(200, '[');
    bomb += std::string(200, ']');
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson(bomb, v, &error));
    EXPECT_FALSE(error.empty());
}

TEST(JsonParseTest, UnicodeEscapesDecodeToUtf8)
{
    JsonValue v;
    ASSERT_TRUE(parseJson("{\"s\": \"\\u00e9A\"}", v));
    EXPECT_EQ(v.find("s")->text, "\xc3\xa9" "A");
}

} // namespace
} // namespace rnr
