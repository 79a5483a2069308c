#include "harness/report.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "harness/json_write.h"
#include "harness/metrics.h"
#include "harness/result_cache.h"
#include "harness/runner.h"
#include "harness/sweep.h"
#include "sim/attrib.h"
#include "sim/timeseries.h"
#include "tracestore/trace_store.h"

namespace rnr {

namespace {

// JSON string escaping comes from harness/json_write.h (jsonEscape),
// shared with the sweep exporter.

std::string
htmlEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/** The matching no-prefetcher cell, or null (cells keyed by workload). */
const ReportCell *
baselineFor(const SweepReport &rep, const ReportCell &cell)
{
    const std::string wkey = cell.result.config.workloadKey();
    for (const ReportCell &c : rep.cells)
        if (c.result.config.prefetcher == PrefetcherKind::None &&
            c.result.config.workloadKey() == wkey)
            return &c;
    return nullptr;
}

} // namespace

SweepReport
buildSweepReport(const std::vector<ExperimentConfig> &cfgs,
                 const std::string &label, Tick sample_cycles)
{
    using Clock = std::chrono::steady_clock;

    SweepReport rep;
    rep.label = label;
    rep.sample_cycles = sample_cycles ? sample_cycles : kDefaultSampleCycles;

    for (const ExperimentConfig &cfg : cfgs) {
        ReportCell cell;

        // Would the result cache have served this cell?  Recorded for
        // the host profile, then deliberately ignored: a cache hit
        // carries no telemetry, and telemetry is the point here.
        ExperimentResult cached;
        cell.result_cache_hit =
            ResultCache::instance().lookup(cfg, cached);

        const TraceStore &ts = TraceStore::instance();
        const std::uint64_t caps_before = ts.captures();
        const std::uint64_t hits_before = ts.hits();

        TelemetrySampler tm(rep.sample_cycles);
        AttribCollector at;
        const Clock::time_point t0 = Clock::now();
        cell.result =
            runExperimentUncached(cfg, {.telemetry = &tm, .attrib = &at});
        cell.wall_sec =
            std::chrono::duration<double>(Clock::now() - t0).count();
        cell.peak_rss_bytes = hostPeakRssBytes();
        cell.trace_store_captured = ts.captures() > caps_before;
        cell.trace_store_hit = ts.hits() > hits_before;

        rep.cells.push_back(std::move(cell));
    }
    return rep;
}

std::string
reportJson(const SweepReport &rep)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"rnr-report-v2\",\n  \"label\": \""
       << jsonEscape(rep.label) << "\",\n  \"sample_cycles\": "
       << rep.sample_cycles << ",\n  \"cells\": [\n";

    for (std::size_t ci = 0; ci < rep.cells.size(); ++ci) {
        const ReportCell &cell = rep.cells[ci];
        const ExperimentResult &r = cell.result;
        const ExperimentConfig &c = r.config;
        os << "    {\n      \"key\": \"" << jsonEscape(c.key())
           << "\",\n";
        os << "      \"config\": {\"app\": \"" << c.app
           << "\", \"input\": \"" << c.input << "\", \"prefetcher\": \""
           << toString(c.prefetcher) << "\", \"control\": \""
           << replayControlName(c.control) << "\", \"window_size\": "
           << c.window_size << ", \"iterations\": " << c.iterations
           << ", \"cores\": " << c.cores << ", \"ideal_llc\": "
           << (c.ideal_llc ? "true" : "false") << "},\n";
        os << "      \"host\": {\"wall_sec\": "
           << fmtDouble(cell.wall_sec) << ", \"peak_rss_bytes\": "
           << cell.peak_rss_bytes << ", \"result_cache_hit\": "
           << (cell.result_cache_hit ? "true" : "false")
           << ", \"trace_store_hit\": "
           << (cell.trace_store_hit ? "true" : "false")
           << ", \"trace_store_captured\": "
           << (cell.trace_store_captured ? "true" : "false") << "},\n";

        os << "      \"iterations\": [\n";
        for (std::size_t i = 0; i < r.iterations.size(); ++i) {
            const IterStats &it = r.iterations[i];
            os << "        {";
            const char *sep = "";
#define RNR_JSON_FIELD(type, name)                                          \
            os << sep << "\"" #name "\": " << it.name;                      \
            sep = ", ";
            RNR_ITER_STAT_FIELDS(RNR_JSON_FIELD)
#undef RNR_JSON_FIELD
            os << "}" << (i + 1 < r.iterations.size() ? "," : "")
               << "\n";
        }
        os << "      ],\n";

        // Derived metrics; baseline-relative ones only when the batch
        // contains the matching no-prefetcher cell.
        const ReportCell *base = baselineFor(rep, cell);
        const TimelinessBreakdown tl = timeliness(r);
        os << "      \"metrics\": {\"mpki\": " << fmtDouble(mpki(r))
           << ", \"accuracy\": " << fmtDouble(accuracy(r))
           << ", \"storage_overhead\": "
           << fmtDouble(storageOverhead(r))
           << ", \"timeliness\": {\"ontime\": " << fmtDouble(tl.ontime)
           << ", \"early\": " << fmtDouble(tl.early) << ", \"late\": "
           << fmtDouble(tl.late) << ", \"out_of_window\": "
           << fmtDouble(tl.out_of_window) << "}";
        if (base) {
            const ExperimentResult &b = base->result;
            os << ", \"speedup\": " << fmtDouble(speedup(r, b))
               << ", \"coverage\": " << fmtDouble(coverage(r, b))
               << ", \"traffic_overhead\": "
               << fmtDouble(trafficOverhead(r, b))
               << ", \"record_overhead\": "
               << fmtDouble(recordOverhead(r, b));
        }
        os << "},\n";

        os << "      \"telemetry\": {";
        if (r.telemetry) {
            const TelemetryBlob &tb = *r.telemetry;
            os << "\"sample_cycles\": " << tb.sample_cycles
               << ", \"samples_taken\": " << tb.samples_taken
               << ",\n        \"series\": [\n";
            for (std::size_t s = 0; s < tb.series.size(); ++s) {
                const TelemetrySeriesBlob &sb = tb.series[s];
                os << "          {\"name\": \"" << jsonEscape(sb.name)
                   << "\", \"keep_every\": " << sb.keep_every
                   << ", \"points\": [";
                for (std::size_t p = 0; p < sb.points.size(); ++p)
                    os << (p ? "," : "") << "[" << sb.points[p].tick
                       << "," << sb.points[p].value << "]";
                os << "]}"
                   << (s + 1 < tb.series.size() ? "," : "") << "\n";
            }
            os << "        ],\n        \"histograms\": [\n";
            for (std::size_t h = 0; h < tb.histograms.size(); ++h) {
                const TelemetryHistogramBlob &hb = tb.histograms[h];
                os << "          {\"name\": \"" << jsonEscape(hb.name)
                   << "\", \"count\": " << hb.count << ", \"sum\": "
                   << hb.sum << ", \"buckets\": [";
                for (std::size_t b = 0; b < hb.buckets.size(); ++b)
                    os << (b ? "," : "") << "[" << hb.buckets[b].first
                       << "," << hb.buckets[b].second << "]";
                os << "]}"
                   << (h + 1 < tb.histograms.size() ? "," : "") << "\n";
            }
            os << "        ]\n      },\n";
        } else {
            os << "},\n";
        }
        // v2: the full rnr-attrib-v1 object rides along per cell (null
        // when attribution was off, e.g. a hand-built report).
        os << "      \"attrib\": ";
        if (r.attrib)
            os << attribJson(*r.attrib);
        else
            os << "null";
        os << "\n    }" << (ci + 1 < rep.cells.size() ? "," : "")
           << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

namespace {

/** An inline-SVG sparkline of one series (fixed 260x60 viewport). */
void
appendSparkline(std::ostringstream &os, const TelemetrySeriesBlob &sb)
{
    constexpr double W = 260, H = 60, pad = 4;
    std::uint64_t vmin = ~std::uint64_t{0}, vmax = 0;
    for (const TelemetrySample &p : sb.points) {
        vmin = std::min(vmin, p.value);
        vmax = std::max(vmax, p.value);
    }
    if (sb.points.empty())
        vmin = vmax = 0;
    const Tick t0 = sb.points.empty() ? 0 : sb.points.front().tick;
    const Tick t1 = sb.points.empty() ? 0 : sb.points.back().tick;

    os << "<div class=\"series\"><div class=\"sname\">"
       << htmlEscape(sb.name) << "</div>"
       << "<svg viewBox=\"0 0 260 60\" width=\"260\" height=\"60\" "
          "role=\"img\"><polyline fill=\"none\" stroke=\"#2a7ae2\" "
          "stroke-width=\"1.2\" points=\"";
    for (const TelemetrySample &p : sb.points) {
        const double x =
            t1 > t0 ? pad + static_cast<double>(p.tick - t0) /
                                static_cast<double>(t1 - t0) *
                                (W - 2 * pad)
                    : W / 2;
        const double y =
            vmax > vmin
                ? H - pad -
                      static_cast<double>(p.value - vmin) /
                          static_cast<double>(vmax - vmin) *
                          (H - 2 * pad)
                : H / 2;
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.1f,%.1f ", x, y);
        os << buf;
    }
    os << "\"/></svg><div class=\"srange\">min " << vmin << " · max "
       << vmax << " · " << sb.points.size() << " pts";
    if (sb.keep_every > 1)
        os << " · 1/" << sb.keep_every;
    os << "</div></div>\n";
}

/** An inline-SVG bar chart of one log2 histogram (fixed height). */
void
appendHistogram(std::ostringstream &os, const TelemetryHistogramBlob &hb)
{
    constexpr double W = 260, H = 80, pad = 4;
    os << "<div class=\"series\"><div class=\"sname\">"
       << htmlEscape(hb.name) << "</div>";
    if (hb.buckets.empty()) {
        os << "<div class=\"srange\">empty</div></div>\n";
        return;
    }
    const unsigned lo = hb.buckets.front().first;
    const unsigned hi = hb.buckets.back().first;
    const unsigned n = hi - lo + 1;
    std::uint64_t cmax = 0;
    for (const auto &b : hb.buckets)
        cmax = std::max(cmax, b.second);
    const double bw = (W - 2 * pad) / n;

    os << "<svg viewBox=\"0 0 260 80\" width=\"260\" height=\"80\" "
          "role=\"img\">";
    for (const auto &b : hb.buckets) {
        const double h = cmax ? static_cast<double>(b.second) /
                                    static_cast<double>(cmax) *
                                    (H - 2 * pad)
                              : 0;
        const double x = pad + (b.first - lo) * bw;
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" "
                      "height=\"%.1f\" fill=\"#e2702a\"><title>"
                      "[%llu, %llu]: %llu</title></rect>",
                      x, H - pad - h, bw > 1.5 ? bw - 1 : bw, h,
                      static_cast<unsigned long long>(
                          Log2Histogram::bucketLow(b.first)),
                      static_cast<unsigned long long>(
                          Log2Histogram::bucketHigh(b.first)),
                      static_cast<unsigned long long>(b.second));
        os << buf;
    }
    const double mean =
        hb.count ? static_cast<double>(hb.sum) /
                       static_cast<double>(hb.count)
                 : 0.0;
    os << "</svg><div class=\"srange\">" << hb.count
       << " samples · mean " << fmtDouble(mean) << " cyc · range ["
       << Log2Histogram::bucketLow(lo) << ", "
       << Log2Histogram::bucketHigh(hi) << "]</div></div>\n";
}

/** Human-readable site-id rendering (the sim/attrib.h grammar). */
std::string
siteName(std::uint32_t site)
{
    if (site == 0)
        return "(none)";
    if (attribSiteIsRnr(site))
        return "rnr lane " +
               std::to_string(site & ~kAttribRnrSiteBit);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "pc 0x%x", site);
    return buf;
}

void
appendAttribStatsCells(std::ostringstream &os, const AttribSiteStats &s)
{
    const double acc =
        s.issued ? static_cast<double>(s.useful) /
                       static_cast<double>(s.issued)
                 : 0.0;
    os << "<td>" << s.issued << "</td><td>" << s.useful << "</td><td>"
       << s.late_merged << "</td><td>" << s.evicted_unused
       << "</td><td>" << s.pollution << "</td><td>" << fmtDouble(acc)
       << "</td>";
}

/** Top-site outcome table (issued / useful / ... / accuracy). */
void
appendSiteTable(std::ostringstream &os, const AttribBlob &ab)
{
    os << "<table class=\"attrib-sites\">\n<tr><th class=\"k\">site"
          "</th><th>issued</th><th>useful</th><th>late merged</th>"
          "<th>evicted unused</th><th>pollution</th><th>accuracy</th>"
          "</tr>\n";
    for (const AttribBlob::SiteRow &row : ab.sites) {
        os << "<tr><td class=\"k\">" << htmlEscape(siteName(row.site))
           << "</td>";
        appendAttribStatsCells(os, row.stats);
        os << "</tr>\n";
    }
    if (ab.site_other.total() > 0) {
        os << "<tr><td class=\"k\">(folded)</td>";
        appendAttribStatsCells(os, ab.site_other);
        os << "</tr>\n";
    }
    os << "</table>\n<p class=\"host\">" << ab.sites_tracked
       << " sites tracked · " << ab.sites.size() << " kept exactly"
       << "</p>\n";
}

/** Busiest-region outcome table (at most @p max_rows rows). */
void
appendRegionTable(std::ostringstream &os, const AttribBlob &ab,
                  std::size_t max_rows)
{
    std::vector<const AttribBlob::RegionRow *> rows;
    rows.reserve(ab.regions.size());
    for (const AttribBlob::RegionRow &r : ab.regions)
        rows.push_back(&r);
    std::sort(rows.begin(), rows.end(),
              [](const AttribBlob::RegionRow *x,
                 const AttribBlob::RegionRow *y) {
                  const std::uint64_t xt = x->stats.total();
                  const std::uint64_t yt = y->stats.total();
                  return xt != yt ? xt > yt : x->region < y->region;
              });
    if (rows.size() > max_rows)
        rows.resize(max_rows);

    os << "<table class=\"attrib-regions\">\n<tr><th class=\"k\">"
          "region (4 KiB)</th><th>issued</th><th>useful</th>"
          "<th>late merged</th><th>evicted unused</th>"
          "<th>pollution</th><th>accuracy</th></tr>\n";
    for (const AttribBlob::RegionRow *row : rows) {
        char name[24];
        std::snprintf(name, sizeof(name), "0x%llx",
                      static_cast<unsigned long long>(row->region));
        os << "<tr><td class=\"k\">" << name << "</td>";
        appendAttribStatsCells(os, row->stats);
        os << "</tr>\n";
    }
    os << "</table>\n<p class=\"host\">showing " << rows.size()
       << " busiest of " << ab.regions.size() << " kept regions ("
       << ab.regions_tracked << " tracked)</p>\n";
}

/**
 * Region heatmap: one tile per kept region in ascending address order,
 * wrapped 64 per row.  Hue runs blue (useful outcomes) to red (wasted:
 * evicted-unused + pollution); opacity scales with log2 activity so a
 * region with 1000x the traffic does not wash out the rest.
 */
void
appendRegionHeatmap(std::ostringstream &os, const AttribBlob &ab)
{
    if (ab.regions.empty())
        return;
    constexpr unsigned kCols = 64, kTile = 10;
    const unsigned n = static_cast<unsigned>(ab.regions.size());
    const unsigned cols = std::min(n, kCols);
    const unsigned rows = (n + kCols - 1) / kCols;
    std::uint64_t tmax = 1;
    for (const AttribBlob::RegionRow &r : ab.regions)
        tmax = std::max(tmax, r.stats.total());
    const double lmax =
        std::log2(static_cast<double>(tmax) + 1.0);

    os << "<svg class=\"heatmap\" viewBox=\"0 0 " << cols * kTile
       << " " << rows * kTile << "\" width=\"" << cols * kTile
       << "\" height=\"" << rows * kTile << "\" role=\"img\">";
    for (unsigned i = 0; i < n; ++i) {
        const AttribBlob::RegionRow &r = ab.regions[i];
        const std::uint64_t total = r.stats.total();
        const std::uint64_t bad =
            r.stats.evicted_unused + r.stats.pollution;
        const double f =
            total ? static_cast<double>(bad) /
                        static_cast<double>(total)
                  : 0.0;
        // #2a7ae2 (all useful) -> #e2402a (all wasted).
        const int red = static_cast<int>(0x2a + f * (0xe2 - 0x2a));
        const int grn = static_cast<int>(0x7a + f * (0x40 - 0x7a));
        const int blu = static_cast<int>(0xe2 + f * (0x2a - 0xe2));
        const double op =
            0.2 + 0.8 * std::log2(static_cast<double>(total) + 1.0) /
                      lmax;
        char buf[240];
        std::snprintf(
            buf, sizeof(buf),
            "<rect x=\"%u\" y=\"%u\" width=\"%u\" height=\"%u\" "
            "fill=\"#%02x%02x%02x\" fill-opacity=\"%.2f\"><title>"
            "region 0x%llx: %llu events, %.0f%% wasted</title>"
            "</rect>",
            (i % kCols) * kTile, (i / kCols) * kTile, kTile - 1,
            kTile - 1, red, grn, blu, op,
            static_cast<unsigned long long>(r.region),
            static_cast<unsigned long long>(total), f * 100.0);
        os << buf;
    }
    os << "</svg>\n<p class=\"host\">heatmap: blue = useful, red = "
          "wasted (evicted unused + pollution); opacity = log "
          "activity</p>\n";
}

} // namespace

std::string
reportHtml(const SweepReport &rep)
{
    std::ostringstream os;
    os << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
          "<meta charset=\"utf-8\">\n<title>RnR report: "
       << htmlEscape(rep.label)
       << "</title>\n<style>\n"
          "body{font:14px/1.45 system-ui,sans-serif;margin:2em;"
          "color:#222;max-width:1200px}\n"
          "h1{font-size:1.4em}h2{font-size:1.1em;margin-top:2em;"
          "border-bottom:1px solid #ddd;padding-bottom:.25em}\n"
          "table{border-collapse:collapse;margin:1em 0}\n"
          "td,th{border:1px solid #ccc;padding:.3em .6em;"
          "text-align:right;font-variant-numeric:tabular-nums}\n"
          "th{background:#f5f5f5}td.k,th.k{text-align:left;"
          "font-family:ui-monospace,monospace;font-size:.92em}\n"
          ".cells{display:flex;flex-wrap:wrap;gap:1em}\n"
          ".series{border:1px solid #e5e5e5;border-radius:4px;"
          "padding:.5em}\n"
          ".sname{font-family:ui-monospace,monospace;font-size:.85em}\n"
          ".srange{color:#777;font-size:.8em}\n"
          ".host{color:#555;font-size:.9em}\n"
          "</style>\n</head>\n<body>\n";
    os << "<h1>RnR run report — " << htmlEscape(rep.label) << "</h1>\n";
    os << "<p class=\"host\">schema rnr-report-v2 · sampling every "
       << rep.sample_cycles << " cycles · " << rep.cells.size()
       << " cells</p>\n";

    // ---- Derived-metric summary table (Fig 6-13 columns) ----
    os << "<h2>Derived metrics</h2>\n<table>\n<tr><th class=\"k\">cell"
          "</th><th>speedup</th><th>MPKI</th><th>coverage</th>"
          "<th>accuracy</th><th>traffic</th><th>storage</th>"
          "<th>record ovh</th><th>wall s</th><th>peak RSS MiB</th>"
          "<th>cache</th><th>trace store</th></tr>\n";
    for (const ReportCell &cell : rep.cells) {
        const ExperimentResult &r = cell.result;
        const ReportCell *base = baselineFor(rep, cell);
        os << "<tr><td class=\"k\">" << htmlEscape(r.config.key())
           << "</td>";
        if (base)
            os << "<td>" << fmtDouble(speedup(r, base->result))
               << "</td>";
        else
            os << "<td>–</td>";
        os << "<td>" << fmtDouble(mpki(r)) << "</td>";
        if (base)
            os << "<td>" << fmtDouble(coverage(r, base->result))
               << "</td>";
        else
            os << "<td>–</td>";
        os << "<td>" << fmtDouble(accuracy(r)) << "</td>";
        if (base)
            os << "<td>"
               << fmtDouble(trafficOverhead(r, base->result))
               << "</td><td>" << fmtDouble(storageOverhead(r))
               << "</td><td>"
               << fmtDouble(recordOverhead(r, base->result))
               << "</td>";
        else
            os << "<td>–</td><td>" << fmtDouble(storageOverhead(r))
               << "</td><td>–</td>";
        char wall[32];
        std::snprintf(wall, sizeof(wall), "%.2f", cell.wall_sec);
        os << "<td>" << wall << "</td><td>";
        if (cell.peak_rss_bytes)
            os << fmtDouble(static_cast<double>(cell.peak_rss_bytes) /
                            (1024.0 * 1024.0));
        else
            os << "n/a";
        os << "</td><td>" << (cell.result_cache_hit ? "hit" : "miss")
           << "</td><td>"
           << (cell.trace_store_hit
                   ? "replay"
                   : cell.trace_store_captured ? "capture" : "off")
           << "</td></tr>\n";
    }
    os << "</table>\n";

    // ---- Per-cell telemetry + attribution ----
    for (const ReportCell &cell : rep.cells) {
        const ExperimentResult &r = cell.result;
        os << "<h2>" << htmlEscape(r.config.key()) << "</h2>\n";
        if (r.telemetry) {
            const TelemetryBlob &tb = *r.telemetry;
            os << "<p class=\"host\">" << tb.samples_taken
               << " samples · period " << tb.sample_cycles
               << " cycles</p>\n<div class=\"cells\">\n";
            for (const TelemetrySeriesBlob &sb : tb.series)
                appendSparkline(os, sb);
            for (const TelemetryHistogramBlob &hb : tb.histograms)
                appendHistogram(os, hb);
            os << "</div>\n";
        } else {
            os << "<p class=\"host\">no telemetry collected</p>\n";
        }
        if (r.attrib) {
            const AttribBlob &ab = *r.attrib;
            os << "<h3>Prefetch attribution</h3>\n<p class=\"host\">"
               << ab.totals.issued << " issued · " << ab.totals.useful
               << " useful · " << ab.totals.late_merged
               << " late merged · " << ab.totals.evicted_unused
               << " evicted unused · " << ab.totals.pollution
               << " pollution</p>\n";
            appendSiteTable(os, ab);
            appendRegionHeatmap(os, ab);
            appendRegionTable(os, ab, 32);
        }
    }
    os << "</body>\n</html>\n";
    return os.str();
}

bool
writeReport(const std::string &prefix, const SweepReport &rep)
{
    const bool json_ok = writeFileAtomic(prefix + ".json", reportJson(rep));
    const bool html_ok = writeFileAtomic(prefix + ".html", reportHtml(rep));
    return json_ok && html_ok;
}

} // namespace rnr
