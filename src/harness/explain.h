/**
 * @file
 * One cell, explained: the "rnr-explain-v2" document that answers "why
 * this number?" for any cell a bench prints.
 *
 * The document has six parts:
 *
 *  - `cell`: the sweep exporter's object for the result (config, key,
 *    footprint and per-iteration counters; harness/sweep.h);
 *  - `baseline`: the same object for the no-prefetcher run, or null;
 *  - `metrics`: `mpki`, `accuracy`, `storage_overhead` and `timeliness`
 *    always, plus `speedup`, `coverage`, `traffic_overhead` and
 *    `record_overhead` when there is a baseline (harness/metrics.h);
 *  - `windows`: the touched rows of the per-window replay table
 *    (buildReplayDiagnostics over the attribution blob: demands,
 *    issues, pace, refill stalls and the Fig 11 splits per
 *    Division-Table window) with their `total`, or null without
 *    attribution;
 *  - `attrib`: the rnr-attrib-v2 object (sim/attrib.h), or null;
 *  - `telemetry`: the sampled series and histograms, or null.
 *
 * `trace_tools explain` prints it with both probes attached and a
 * baseline; RNR_OBS writes it as `<prefix>.explain.json` with whatever
 * probes the switch turned on and no baseline (harness/runner.h).
 *
 * See docs/HARNESS.md section 11.
 */
#ifndef RNR_HARNESS_EXPLAIN_H
#define RNR_HARNESS_EXPLAIN_H

#include <string>

#include "harness/experiment.h"

namespace rnr {

/**
 * The rnr-explain-v2 document for @p cell.  @p baseline (the matching
 * no-prefetcher result) may be null; so may the cell's own telemetry
 * and attribution blobs.
 */
std::string explainJson(const ExperimentResult &cell,
                        const ExperimentResult *baseline);

/**
 * The two reconciliations an explained cell must pass, because every
 * probe hook sits on the line that bumps the counter it mirrors:
 *
 *  - the attribution totals (issued, useful, late merged and the four
 *    RnR classes) equal the IterStats sums over the iterations;
 *  - the per-window table's Fig 11 totals equal the rnr_* sums.
 *
 * Both come from the attribution blob; a cell without one is not
 * checked.  Returns "" when both hold, otherwise one line naming what
 * disagreed.
 */
std::string explainMismatch(const ExperimentResult &cell);

} // namespace rnr

#endif // RNR_HARNESS_EXPLAIN_H
