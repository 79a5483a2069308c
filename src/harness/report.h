/**
 * @file
 * Sweep-level run reports: one JSON document plus one self-contained
 * HTML dashboard per batch of experiment cells.
 *
 * The sweep JSON export (harness/sweep.h) answers "what were the
 * counters"; a report answers "what did the run look like" — every
 * cell's time-series telemetry (sim/timeseries.h) rendered as inline-SVG
 * sparklines, the latency histograms as bar charts, the Fig 6-13
 * derived metrics (harness/metrics.h) tabulated against the
 * no-prefetcher baseline, and per-cell host profiling (wall clock, peak
 * RSS, result-cache / trace-store hit state).
 *
 * Report generation always simulates (runExperimentUncached with a
 * live sampler) — a result-cache hit would carry no telemetry — but the
 * trace store still accelerates it: every cell of one workload replays
 * the same captured trace.
 *
 * Output formats:
 *  - `<prefix>.json`, schema "rnr-report-v2": machine-readable; cells
 *    with config/key, per-iteration counters, derived metrics, host
 *    profile, the full telemetry blob (series points as [tick, value]
 *    pairs) and the rnr-attrib-v1 attribution object.
 *  - `<prefix>.html`: a single file with inline CSS/SVG and zero
 *    external fetches, so it can be archived or attached to CI runs
 *    and opened anywhere.
 *
 * RNR_OBS=telemetry,attrib with RNR_OBS_OUT=<p> writes one cell of this
 * schema per simulated run instead (harness/runner.h).
 *
 * See docs/HARNESS.md section 11.
 */
#ifndef RNR_HARNESS_REPORT_H
#define RNR_HARNESS_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace rnr {

/** One simulated cell plus what producing it cost on the host. */
struct ReportCell {
    ExperimentResult result;
    double wall_sec = 0;
    std::uint64_t peak_rss_bytes = 0; ///< Process HWM after the cell.
    bool result_cache_hit = false; ///< A cached result existed (unused).
    bool trace_store_hit = false;  ///< Replayed from the trace corpus.
    bool trace_store_captured = false; ///< This cell captured the trace.
};

/** A full report: every cell of one labelled batch. */
struct SweepReport {
    std::string label = "report";
    Tick sample_cycles = 0; ///< Effective period used for every cell.
    std::vector<ReportCell> cells;
};

/**
 * Simulates every config in @p cfgs with a telemetry sampler (period
 * @p sample_cycles, 0 = kDefaultSampleCycles) and an attribution
 * collector attached, and collects the cells.  Bypasses the result
 * cache by construction; uses the trace store when enabled.
 */
SweepReport buildSweepReport(const std::vector<ExperimentConfig> &cfgs,
                             const std::string &label = "report",
                             Tick sample_cycles = 0);

/** The report as an "rnr-report-v2" JSON document. */
std::string reportJson(const SweepReport &rep);

/** The report as one self-contained HTML page (no external fetches). */
std::string reportHtml(const SweepReport &rep);

/**
 * Writes `<prefix>.json` and `<prefix>.html` atomically (temp +
 * rename).  Returns false if either write failed.
 */
bool writeReport(const std::string &prefix, const SweepReport &rep);

} // namespace rnr

#endif // RNR_HARNESS_REPORT_H
