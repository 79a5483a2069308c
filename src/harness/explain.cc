#include "harness/explain.h"

#include <sstream>

#include "harness/json_write.h"
#include "harness/metrics.h"
#include "harness/sweep.h"
#include "sim/attrib.h"
#include "sim/timeseries.h"
#include "sim/trace_event.h"

namespace rnr {

namespace {

void
appendMetrics(std::ostringstream &os, const ExperimentResult &r,
              const ExperimentResult *base)
{
    const TimelinessBreakdown tl = timeliness(r);
    os << "{\"mpki\": " << jsonDouble(mpki(r))
       << ", \"accuracy\": " << jsonDouble(accuracy(r))
       << ", \"storage_overhead\": " << jsonDouble(storageOverhead(r))
       << ", \"timeliness\": {\"ontime\": " << jsonDouble(tl.ontime)
       << ", \"early\": " << jsonDouble(tl.early)
       << ", \"late\": " << jsonDouble(tl.late)
       << ", \"out_of_window\": " << jsonDouble(tl.out_of_window) << "}";
    if (base)
        os << ", \"speedup\": " << jsonDouble(speedup(r, *base))
           << ", \"coverage\": " << jsonDouble(coverage(r, *base))
           << ", \"traffic_overhead\": "
           << jsonDouble(trafficOverhead(r, *base))
           << ", \"record_overhead\": "
           << jsonDouble(recordOverhead(r, *base));
    os << "}";
}

/** One window row's counts; the total row has no window or pace. */
void
appendWindow(std::ostringstream &os, const WindowDiag &w, bool row)
{
    os << "{";
    if (row)
        os << "\"window\": " << w.window << ", ";
    os << "\"demands\": " << w.demands << ", \"issued\": " << w.issued;
    if (row)
        os << ", \"pace\": " << w.pace;
    os << ", \"refill_stalls\": " << w.refill_stalls
       << ", \"ontime\": " << w.ontime << ", \"early\": " << w.early
       << ", \"late\": " << w.late
       << ", \"out_of_window\": " << w.out_of_window << "}";
}

void
appendWindows(std::ostringstream &os, const TraceCollector &tr)
{
    const ReplayDiagnostics d = buildReplayDiagnostics(tr);
    os << "{\n    \"rows\": [";
    for (std::size_t i = 0; i < d.windows.size(); ++i) {
        os << (i ? ",\n      " : "\n      ");
        appendWindow(os, d.windows[i], true);
    }
    os << (d.windows.empty() ? "" : "\n    ") << "],\n    \"total\": ";
    appendWindow(os, d.total, false);
    os << ",\n    \"events_total\": " << tr.eventsTotal()
       << ", \"events_overwritten\": " << tr.eventsOverwritten()
       << "\n  }";
}

void
appendTelemetry(std::ostringstream &os, const TelemetryBlob &tb)
{
    os << "{\"sample_cycles\": " << tb.sample_cycles
       << ", \"samples_taken\": " << tb.samples_taken
       << ",\n    \"series\": [\n";
    for (std::size_t s = 0; s < tb.series.size(); ++s) {
        const TelemetrySeriesBlob &sb = tb.series[s];
        os << "      {\"name\": " << jsonQuote(sb.name)
           << ", \"keep_every\": " << sb.keep_every << ", \"points\": [";
        for (std::size_t p = 0; p < sb.points.size(); ++p)
            os << (p ? "," : "") << "[" << sb.points[p].tick << ","
               << sb.points[p].value << "]";
        os << "]}" << (s + 1 < tb.series.size() ? "," : "") << "\n";
    }
    os << "    ],\n    \"histograms\": [\n";
    for (std::size_t h = 0; h < tb.histograms.size(); ++h) {
        const TelemetryHistogramBlob &hb = tb.histograms[h];
        os << "      {\"name\": " << jsonQuote(hb.name)
           << ", \"count\": " << hb.count << ", \"sum\": " << hb.sum
           << ", \"buckets\": [";
        for (std::size_t b = 0; b < hb.buckets.size(); ++b)
            os << (b ? "," : "") << "[" << hb.buckets[b].first << ","
               << hb.buckets[b].second << "]";
        os << "]}" << (h + 1 < tb.histograms.size() ? "," : "") << "\n";
    }
    os << "    ]\n  }";
}

} // namespace

std::string
explainJson(const ExperimentResult &cell, const ExperimentResult *baseline,
            const TraceCollector *trace)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"rnr-explain-v1\",\n  \"cell\": ";
    appendResultJson(os, cell, "  ");
    os << ",\n  \"baseline\": ";
    if (baseline)
        appendResultJson(os, *baseline, "  ");
    else
        os << "null";
    os << ",\n  \"metrics\": ";
    appendMetrics(os, cell, baseline);
    os << ",\n  \"windows\": ";
    if (trace)
        appendWindows(os, *trace);
    else
        os << "null";
    os << ",\n  \"attrib\": "
       << (cell.attrib ? attribJson(*cell.attrib) : "null")
       << ",\n  \"telemetry\": ";
    if (cell.telemetry)
        appendTelemetry(os, *cell.telemetry);
    else
        os << "null";
    os << "\n}\n";
    return os.str();
}

std::string
explainMismatch(const ExperimentResult &cell, const TraceCollector *trace)
{
    const auto sum = [&cell](std::uint64_t IterStats::*field) {
        std::uint64_t s = 0;
        for (const IterStats &it : cell.iterations)
            s += it.*field;
        return s;
    };
    std::string bad;
    const auto check = [&bad](const char *what, std::uint64_t probe,
                              std::uint64_t counter) {
        if (probe == counter)
            return;
        bad += (bad.empty() ? "" : "; ") + std::string(what) + " " +
               std::to_string(probe) + " != counters " +
               std::to_string(counter);
    };
    if (const AttribBlob *a = cell.attrib.get()) {
        check("attrib issued", a->totals.issued, sum(&IterStats::pf_issued));
        check("attrib useful", a->totals.useful, sum(&IterStats::pf_useful));
        check("attrib late_merged", a->totals.late_merged,
              sum(&IterStats::pf_late_merged));
        check("attrib ontime", a->rnr_ontime, sum(&IterStats::rnr_ontime));
        check("attrib early", a->rnr_early, sum(&IterStats::rnr_early));
        check("attrib late", a->rnr_late, sum(&IterStats::rnr_late));
        check("attrib out_of_window", a->rnr_out_of_window,
              sum(&IterStats::rnr_out_of_window));
    }
    if (trace) {
        const WindowDiag t = buildReplayDiagnostics(*trace).total;
        check("windows ontime", t.ontime, sum(&IterStats::rnr_ontime));
        check("windows early", t.early, sum(&IterStats::rnr_early));
        check("windows late", t.late, sum(&IterStats::rnr_late));
        check("windows out_of_window", t.out_of_window,
              sum(&IterStats::rnr_out_of_window));
    }
    return bad;
}

} // namespace rnr
