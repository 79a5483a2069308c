#include "sim/trace_event.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "harness/json_write.h"

namespace rnr {

const char *
traceEventName(TraceEventType type)
{
    switch (type) {
      case TraceEventType::CacheMiss: return "cache_miss";
      case TraceEventType::CacheFill: return "cache_fill";
      case TraceEventType::MshrAlloc: return "mshr_alloc";
      case TraceEventType::MshrMerge: return "mshr_merge";
      case TraceEventType::DramEnqueue: return "dram_enqueue";
      case TraceEventType::DramDequeue: return "dram_dequeue";
      case TraceEventType::PrefetchIssue: return "pf_issue";
      case TraceEventType::PrefetchDrop: return "pf_drop";
      case TraceEventType::PrefetchFill: return "pf_fill";
      case TraceEventType::ControlRecord: return "rnr_api";
      case TraceEventType::RecordStart: return "record_start";
      case TraceEventType::RecordStop: return "record_stop";
      case TraceEventType::ReplayStart: return "replay_start";
      case TraceEventType::ReplayStop: return "replay_stop";
      case TraceEventType::SeqTableWrite: return "seq_table_write";
      case TraceEventType::DivTableWrite: return "div_table_write";
      case TraceEventType::WindowOpen: return "window_open";
      case TraceEventType::WindowClose: return "window_close";
      case TraceEventType::PaceRecompute: return "pace_recompute";
      case TraceEventType::MetaRefill: return "meta_refill";
      case TraceEventType::MetaRefillStall: return "meta_refill_stall";
      case TraceEventType::PfOntime: return "pf_ontime";
      case TraceEventType::PfEarly: return "pf_early";
      case TraceEventType::PfLate: return "pf_late";
      case TraceEventType::PfOutOfWindow: return "pf_out_of_window";
    }
    return "?";
}

TraceCollector::TraceCollector(unsigned cores, std::size_t ring_capacity)
    : cores_(cores)
{
    const std::size_t cap =
        ring_capacity ? ring_capacity : kDefaultRingCapacity;
    rings_.reserve(trackCount());
    for (unsigned t = 0; t < trackCount(); ++t)
        rings_.emplace_back(cap);
}

void
TraceCollector::reset()
{
    for (TraceRing &r : rings_)
        r = TraceRing(r.capacity());
    windows_.clear();
}

WindowDiag &
TraceCollector::diag(std::uint32_t w)
{
    if (w >= windows_.size()) {
        windows_.resize(w + 1);
        for (std::uint32_t i = 0; i < windows_.size(); ++i)
            windows_[i].window = i;
    }
    return windows_[w];
}

void
TraceCollector::aggregate(const TraceEvent &e)
{
    // Only the types the replay report is built from; everything else
    // lives in the rings alone.
    switch (e.type) {
      case TraceEventType::WindowOpen:
      case TraceEventType::PaceRecompute:
        diag(e.window).pace = e.arg;
        break;
      case TraceEventType::MetaRefillStall:
        ++diag(e.window).refill_stalls;
        break;
      case TraceEventType::PfOntime:
        ++diag(e.window).ontime;
        break;
      case TraceEventType::PfEarly:
        ++diag(e.window).early;
        break;
      case TraceEventType::PfLate:
        ++diag(e.window).late;
        break;
      case TraceEventType::PfOutOfWindow:
        ++diag(e.window).out_of_window;
        break;
      default:
        break;
    }
}

std::uint64_t
TraceCollector::eventsTotal() const
{
    std::uint64_t n = 0;
    for (const TraceRing &r : rings_)
        n += r.total();
    return n;
}

std::uint64_t
TraceCollector::eventsOverwritten() const
{
    std::uint64_t n = 0;
    for (const TraceRing &r : rings_)
        n += r.overwritten();
    return n;
}

ReplayDiagnostics
buildReplayDiagnostics(const TraceCollector &tr)
{
    ReplayDiagnostics d;
    for (const WindowDiag &w : tr.windowTable()) {
        const bool touched = w.demands || w.issued || w.refill_stalls ||
                             w.ontime || w.early || w.late ||
                             w.out_of_window || w.pace;
        if (!touched)
            continue;
        d.windows.push_back(w);
        d.total.demands += w.demands;
        d.total.issued += w.issued;
        d.total.refill_stalls += w.refill_stalls;
        d.total.ontime += w.ontime;
        d.total.early += w.early;
        d.total.late += w.late;
        d.total.out_of_window += w.out_of_window;
    }
    return d;
}

std::string
formatReplayDiagnostics(const ReplayDiagnostics &diag)
{
    std::ostringstream os;
    char line[192];
    std::snprintf(line, sizeof(line),
                  "%8s %10s %10s %6s %7s %10s %8s %8s %8s\n", "window",
                  "demands", "issued", "pace", "stalls", "ontime",
                  "early", "late", "out-of-w");
    os << line;
    const auto row = [&](const char *label, const WindowDiag &w) {
        std::snprintf(line, sizeof(line),
                      "%8s %10" PRIu64 " %10" PRIu64 " %6" PRIu64
                      " %7" PRIu64 " %10" PRIu64 " %8" PRIu64 " %8" PRIu64
                      " %8" PRIu64 "\n",
                      label, w.demands, w.issued, w.pace, w.refill_stalls,
                      w.ontime, w.early, w.late, w.out_of_window);
        os << line;
    };
    for (const WindowDiag &w : diag.windows) {
        char label[16];
        std::snprintf(label, sizeof(label), "%" PRIu32, w.window);
        row(label, w);
    }
    row("total", diag.total);
    return os.str();
}

namespace {

const char *
cacheLevelName(std::uint64_t level)
{
    switch (level & 3) {
      case 0: return "l1";
      case 1: return "l2";
      default: return "llc";
    }
}

void
appendEventJson(std::ostringstream &os, const TraceEvent &e,
                std::uint16_t track, bool &first)
{
    if (!first)
        os << ",\n";
    first = false;

    os << "    {\"name\": \"";
    // Cache events carry their level in arg; fold it into the name so
    // Perfetto's aggregation-by-name stays meaningful per level.
    if (e.type == TraceEventType::CacheMiss ||
        e.type == TraceEventType::CacheFill) {
        os << cacheLevelName(e.arg) << "_"
           << (e.type == TraceEventType::CacheMiss ? "miss" : "fill");
        if (e.type == TraceEventType::CacheFill && (e.arg & 4))
            os << "_pf";
    } else {
        // Names are internal constants today, but escape anyway so this
        // writer shares the one escaping discipline (json_write.h).
        os << jsonEscape(traceEventName(e.type));
    }
    os << "\", \"cat\": \"rnr\", \"pid\": 1, \"tid\": " << track
       << ", \"ts\": " << e.tick;
    if (e.type == TraceEventType::MetaRefillStall) {
        // Stalls render as spans so the dead time is visible.
        os << ", \"ph\": \"X\", \"dur\": " << (e.arg ? e.arg : 1);
    } else {
        os << ", \"ph\": \"i\", \"s\": \"t\"";
    }
    os << ", \"args\": {\"addr\": " << e.addr << ", \"arg\": " << e.arg
       << ", \"window\": " << e.window << ", \"core\": " << e.core
       << "}}";
}

} // namespace

std::string
chromeTraceJson(const TraceCollector &tr)
{
    std::ostringstream os;
    os << "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n";
    bool first = true;

    // Track-name metadata so Perfetto shows labelled lanes.
    for (unsigned t = 0; t < tr.trackCount(); ++t) {
        if (!first)
            os << ",\n";
        first = false;
        os << "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
              "\"tid\": "
           << t << ", \"args\": {\"name\": \"";
        if (t < tr.cores())
            os << "core " << t;
        else if (t == tr.memTrack())
            os << "mem (LLC+DRAM)";
        else
            os << "rnr replay";
        os << "\"}}";
    }

    for (unsigned t = 0; t < tr.trackCount(); ++t) {
        const TraceRing &ring = tr.ring(static_cast<std::uint16_t>(t));
        for (std::size_t i = 0; i < ring.size(); ++i)
            appendEventJson(os, ring.at(i),
                            static_cast<std::uint16_t>(t), first);
    }
    os << "\n  ],\n  \"otherData\": {\"events_total\": "
       << tr.eventsTotal()
       << ", \"events_overwritten\": " << tr.eventsOverwritten()
       << ", \"cores\": " << tr.cores() << "}\n}\n";
    return os.str();
}

bool
writeChromeTrace(const std::string &path, const TraceCollector &tr)
{
    return writeFileAtomic(path, chromeTraceJson(tr));
}

} // namespace rnr
