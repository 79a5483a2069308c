/**
 * @file
 * Simulation event tracing: typed events, per-track ring buffers, a
 * Chrome-trace/Perfetto JSON exporter and per-window replay diagnostics.
 *
 * This is the observability layer under the paper's timeliness story:
 * IterStats (harness/experiment.h) says *how many* replay prefetches
 * were early/on-time/late per iteration; the trace says *when* and *in
 * which Division-Table window* each one happened, alongside the cache,
 * MSHR, DRAM and metadata-streaming events that explain why.
 *
 * Design constraints, in order:
 *
 *  1. **Observation only.**  Nothing here feeds back into simulation
 *     state; a traced run produces bit-identical IterStats to an
 *     untraced run (pinned by tests/sim/trace_event_test.cc).
 *  2. **Free when off.**  Components hold the probe bus (sim/probes.h),
 *     whose trace pointer is null unless tracing was requested
 *     (RNR_OBS=trace or a caller-owned collector); the hot-path cost of
 *     disabled tracing is one predictable null-pointer branch per hook.
 *  3. **Bounded when on.**  Events land in fixed-capacity rings (one
 *     per track) that overwrite the oldest entry when full; per-window
 *     aggregates are updated at emit time, so the diagnostics report
 *     stays exact even after the rings wrap.
 *  4. **Single-writer.**  A collector belongs to one System, and a
 *     System is only ever driven by one thread (the sweep parallelises
 *     at whole-simulation granularity, see sim/stats.h).  The rings are
 *     single-producer and need no atomics — "lock-free" by ownership.
 *
 * Tracks: one per simulated core (tid 0..N-1, core-side events), one
 * shared "mem" track (tid N, LLC + DRAM), one "rnr" track (tid N+1,
 * the record/replay lifecycle).  writeChromeTrace() emits Chrome
 * trace-event JSON ({"traceEvents": [...]}) that loads directly into
 * Perfetto (ui.perfetto.dev) or chrome://tracing; timestamps are core
 * cycles written into the "ts" microsecond field (1 cycle == 1 "us" on
 * screen — only relative spacing matters).
 *
 * See docs/HARNESS.md section 11 for the full pipeline walkthrough.
 */
#ifndef RNR_SIM_TRACE_EVENT_H
#define RNR_SIM_TRACE_EVENT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.h"

namespace rnr {

/** Every event kind the simulator can emit. */
enum class TraceEventType : std::uint8_t {
    // Memory hierarchy (core tracks; LLC events on the "mem" track).
    CacheMiss,      ///< Lookup found no resident line; arg = cache level.
    CacheFill,      ///< Line installed; tick = fill time, arg = level
                    ///< (+4 when the fill was triggered by a prefetch).
    MshrAlloc,      ///< Outstanding-miss entry allocated; tick = fill
                    ///< tick, arg = 1 for the prefetch-queue file.
    MshrMerge,      ///< Demand merged into an in-flight fill.
    DramEnqueue,    ///< Request entered the DRAM queues; arg = ReqOrigin.
    DramDequeue,    ///< Read serviced; tick = completion, arg = latency.
    // Prefetch path (core tracks; all prefetcher kinds).
    PrefetchIssue,  ///< New prefetch went out; arg = fill latency.
    PrefetchDrop,   ///< arg: 0 = redundant, 1 = prefetch queue full.
    PrefetchFill,   ///< Prefetched line's data arrives (tick = fill).
    ControlRecord,  ///< RnR API call executed by the core; arg = RnrOp.
    // RnR lifecycle ("rnr" track; event.core says which core's RnR).
    RecordStart,    ///< PrefetchState.start()
    RecordStop,     ///< Recording ended; arg = sequence entries recorded.
    ReplayStart,    ///< PrefetchState.replay(); arg = entries to replay.
    ReplayStop,     ///< Replay ended (EndState/state change).
    SeqTableWrite,  ///< Staged sequence entries written back; arg = bytes.
    DivTableWrite,  ///< Division-table append written back; arg = bytes.
    WindowOpen,     ///< Program progressed into `window`; arg = N_pace.
    WindowClose,    ///< Program left `window`.
    PaceRecompute,  ///< Controller recomputed N_pace; arg = new pace.
    MetaRefill,     ///< Metadata double-buffer refill; arg = bytes.
    MetaRefillStall,///< Refill completed after `now`; arg = stall cycles.
    PfOntime,       ///< Replay-prefetch classification (Fig 11 taxonomy),
    PfEarly,        ///< attributed to the prefetch's recorded window.
    PfLate,
    PfOutOfWindow,
};

/** Number of TraceEventType values (for tables in the exporter). */
constexpr unsigned kTraceEventTypeCount =
    static_cast<unsigned>(TraceEventType::PfOutOfWindow) + 1;

/** Stable display name used by the exporter and the tests. */
const char *traceEventName(TraceEventType type);

/** One recorded event.  32 bytes; rings hold tens of thousands. */
struct TraceEvent {
    Tick tick = 0;              ///< Core-cycle timestamp.
    Addr addr = 0;              ///< Block number / table address / 0.
    std::uint64_t arg = 0;      ///< Type-specific payload (see enum).
    std::uint32_t window = 0;   ///< Division-Table window (RnR events).
    std::uint16_t core = 0;     ///< Originating core.
    TraceEventType type = TraceEventType::CacheMiss;
};

/**
 * Fixed-capacity single-producer ring.  push() overwrites the oldest
 * event once full; total() keeps counting, so overwritten() exposes the
 * loss and the exporter can say what was dropped (no silent caps).
 */
class TraceRing
{
  public:
    explicit TraceRing(std::size_t capacity)
        : capacity_(capacity ? capacity : 1)
    {
    }

    void
    push(const TraceEvent &e)
    {
        if (ev_.size() < capacity_) {
            ev_.push_back(e);
        } else {
            ev_[total_ % capacity_] = e;
        }
        ++total_;
    }

    /** Events currently resident (<= capacity). */
    std::size_t size() const { return ev_.size(); }
    std::size_t capacity() const { return capacity_; }
    /** Events ever pushed. */
    std::uint64_t total() const { return total_; }
    /** Events lost to wrap-around. */
    std::uint64_t overwritten() const { return total_ - ev_.size(); }

    /** @return the @p i-th resident event, oldest first. */
    const TraceEvent &
    at(std::size_t i) const
    {
        if (total_ <= capacity_)
            return ev_[i];
        return ev_[(total_ + i) % capacity_];
    }

  private:
    std::size_t capacity_;
    std::vector<TraceEvent> ev_;
    std::uint64_t total_ = 0;
};

/**
 * Per-window aggregates for the replay diagnostics report — the drill-
 * down of Fig 11 from per-iteration to per-Division-Table-window
 * granularity.  Updated at emit time, so exact regardless of ring wrap;
 * windows accumulate across replay passes (iterations) and cores.
 */
struct WindowDiag {
    std::uint32_t window = 0;
    std::uint64_t demands = 0;       ///< Target-structure reads observed.
    std::uint64_t issued = 0;        ///< RnR replay prefetches issued.
    std::uint64_t pace = 0;          ///< Last N_pace active in the window.
    std::uint64_t refill_stalls = 0; ///< Metadata refills that arrived late.
    std::uint64_t ontime = 0;        ///< Fig 11 classification, attributed
    std::uint64_t early = 0;         ///< to the prefetch's recorded window.
    std::uint64_t late = 0;
    std::uint64_t out_of_window = 0;
};

/**
 * The per-simulation event sink: one ring per track plus the window
 * aggregate table.  Owned by whoever runs the simulation (the runner,
 * the rnr-trace tool, a test); components receive it on the probe bus
 * via System::attach() and must not outlive it.
 */
class TraceCollector
{
  public:
    /** Events per track when the constructor is given 0: 32k events x
     *  32 B x (cores + 2) tracks ~= 6 MB on a 4-core machine, enough
     *  to hold a full scaled replay iteration without wrapping. */
    static constexpr std::size_t kDefaultRingCapacity = 32768;

    /** @param cores simulated core count (fixes the track layout).
     *  @param ring_capacity events per track; 0 = the default. */
    explicit TraceCollector(unsigned cores, std::size_t ring_capacity = 0);

    /** Drops every event and window row (Probes::reset()). */
    void reset();

    unsigned cores() const { return cores_; }
    /** Track of the shared backside (LLC + DRAM). */
    std::uint16_t memTrack() const { return static_cast<std::uint16_t>(cores_); }
    /** Track of the RnR record/replay lifecycle. */
    std::uint16_t rnrTrack() const
    {
        return static_cast<std::uint16_t>(cores_ + 1);
    }
    unsigned trackCount() const { return cores_ + 2; }

    /** Appends an event to @p track's ring and folds it into the
     *  per-window aggregates when the type participates in the replay
     *  report.  Callers gate on their pointer, so this never runs when
     *  tracing is disabled. */
    void
    emit(std::uint16_t track, TraceEventType type, Tick tick, Addr addr = 0,
         std::uint64_t arg = 0, std::uint32_t window = 0,
         std::uint16_t core = 0)
    {
        TraceEvent e;
        e.tick = tick;
        e.addr = addr;
        e.arg = arg;
        e.window = window;
        e.core = core;
        e.type = type;
        rings_[track < rings_.size() ? track : rings_.size() - 1].push(e);
        aggregate(e);
    }

    /** Aggregate-only hooks for per-demand-read frequencies that would
     *  flood the rings: they bump the window table and nothing else. */
    void countWindowDemand(std::uint32_t w) { ++diag(w).demands; }
    void countWindowIssue(std::uint32_t w) { ++diag(w).issued; }

    const TraceRing &ring(std::uint16_t track) const
    {
        return rings_[track];
    }
    /** Dense window table (index == window id); rows a replay never
     *  touched stay zero. */
    const std::vector<WindowDiag> &windowTable() const { return windows_; }

    /** Events pushed across all tracks (including overwritten ones). */
    std::uint64_t eventsTotal() const;
    /** Events lost to ring wrap across all tracks. */
    std::uint64_t eventsOverwritten() const;

  private:
    WindowDiag &diag(std::uint32_t w);
    void aggregate(const TraceEvent &e);

    unsigned cores_;
    std::vector<TraceRing> rings_;
    std::vector<WindowDiag> windows_;
};

/** The replay report: touched windows only, plus column totals. */
struct ReplayDiagnostics {
    std::vector<WindowDiag> windows;
    WindowDiag total; ///< Column sums (total.window/pace are meaningless).
};

/** Builds the per-window report from @p tr's aggregate table. */
ReplayDiagnostics buildReplayDiagnostics(const TraceCollector &tr);

/** Renders the report as an aligned text table (ends with a newline). */
std::string formatReplayDiagnostics(const ReplayDiagnostics &diag);

/** Serialises the rings as Chrome trace-event JSON (Perfetto-loadable):
 *  {"traceEvents": [...]} with per-track thread_name metadata. */
std::string chromeTraceJson(const TraceCollector &tr);

/** Writes chromeTraceJson() to @p path atomically (temp + rename).
 *  @return false on I/O failure. */
bool writeChromeTrace(const std::string &path, const TraceCollector &tr);

} // namespace rnr

#endif // RNR_SIM_TRACE_EVENT_H
