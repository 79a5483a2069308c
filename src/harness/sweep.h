/**
 * @file
 * Parallel experiment sweep runner.
 *
 * Every cell of the paper's evaluation matrix (workload x input x
 * prefetcher x RnR options) is an independent simulation, so a batch of
 * ExperimentConfig cells is embarrassingly parallel.  SweepRunner takes
 * such a batch, deduplicates it by ExperimentConfig::key(), and runs
 * the unique cells on its own thread pool: each worker claims the next
 * cell index from one atomic counter and calls runExperiment(), filling
 * the shared result cache (harness/result_cache.h) as it goes.
 * Scheduling order never affects results: every cell is an independent
 * simulation and results are returned by index.  Concurrent requests
 * for the same key — within a sweep or from concurrent runExperiment()
 * callers — are single-flight: one simulation runs, everyone else waits
 * for its result.
 *
 * Observability:
 *  - a progress reporter on stderr (cells done/total, cache hits vs.
 *    freshly simulated, elapsed time and ETA), silenced with
 *    RNR_PROGRESS=0;
 *  - an optional structured JSON export of the full result batch
 *    (SweepOptions::json_out or RNR_JSON_OUT=<path>), so figures can be
 *    regenerated from Python/gnuplot without rerunning the simulator.
 *
 * Environment (all overridable through SweepOptions):
 *   RNR_JOBS=<n>       worker threads (default hardware_concurrency())
 *   RNR_PROGRESS=0     silence the stderr progress reporter
 *   RNR_JSON_OUT=<p>   write the JSON export of every sweep to <p>
 *   RNR_JSON_HOST=0    omit the "host" object from the JSON export
 *                      (host cost varies run to run; omitting it makes
 *                      exports from different runs byte-comparable)
 *   RNR_CKPT=0         disable checkpoint-fork input sharing (src/ckpt/);
 *                      every cell then generates its input natively
 *   RNR_CKPT_DIR=<d>   where input snapshots live (default rnr_ckpt)
 *
 * See docs/HARNESS.md for the JSON schema and a usage walkthrough.
 */
#ifndef RNR_HARNESS_SWEEP_H
#define RNR_HARNESS_SWEEP_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace rnr {

/** Knobs for one sweep; every default defers to the environment. */
struct SweepOptions {
    /** Worker threads; 0 = $RNR_JOBS, else hardware_concurrency(). */
    unsigned jobs = 0;
    /** Progress on stderr; -1 = $RNR_PROGRESS (default on). */
    int progress = -1;
    /** JSON export path; empty = $RNR_JSON_OUT (empty = no export). */
    std::string json_out;
    /** Label shown by the progress reporter ("Fig 6", ...). */
    std::string label = "sweep";
    /** "host" object in the JSON export; -1 = $RNR_JSON_HOST (on). */
    int json_host = -1;
};

/** What a finished sweep did (for tests and the progress summary). */
struct SweepStats {
    std::size_t cells = 0;      ///< unique cells executed
    std::size_t duplicates = 0; ///< configs folded away by key()
    std::size_t cache_hits = 0; ///< served from memo or file cache
    std::size_t simulated = 0;  ///< actually simulated this run
    double elapsed_sec = 0;
};

/**
 * Host-side cost of producing a batch of results: wall clock and the
 * process's peak resident set.  Printed on the sweep accounting line and
 * exported in the JSON "host" object (rnr-sweep-v2) so regressions in
 * simulation cost are visible from archived sweep files.
 */
struct SweepHostInfo {
    double wall_sec = 0;
    std::uint64_t peak_rss_bytes = 0; ///< 0 = unknown (non-Linux host)
    /** Checkpoint-fork accounting for this sweep (deltas of the
     *  CheckpointStore counters across run()): how many inputs were
     *  generated natively (warm-ups) versus forked from a shared
     *  snapshot. */
    std::uint64_t ckpt_warmups = 0;
    std::uint64_t ckpt_forks = 0;
};

/**
 * The process's peak resident set size in bytes (VmHWM from
 * /proc/self/status).  Returns 0 on platforms without procfs — callers
 * treat 0 as "unknown", never as a measurement.
 */
std::uint64_t hostPeakRssBytes();

/** Executes a deduplicated batch of experiments on a thread pool. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {});

    /** Queues @p cfg; duplicates (by key()) are folded into one cell. */
    void add(const ExperimentConfig &cfg);
    void add(const std::vector<ExperimentConfig> &cfgs);

    /**
     * Runs every queued cell to completion and returns their results
     * in the order the cells were first add()ed.  A cell that throws
     * stops only its own worker; the others drain the batch, and once
     * every thread has joined (stats() filled in) the first exception
     * is rethrown.  May be called once per runner.
     */
    std::vector<ExperimentResult> run();

    /** Valid after run(). */
    const SweepStats &stats() const { return stats_; }

    /** Thread-pool width implied by @p opts and the environment. */
    static unsigned resolveJobs(const SweepOptions &opts);

  private:
    SweepOptions opts_;
    std::vector<ExperimentConfig> cells_; ///< unique, insertion order
    std::vector<std::string> keys_;
    SweepStats stats_;
};

/** One-shot convenience: queue @p cfgs, run, return the results. */
std::vector<ExperimentResult>
runSweep(const std::vector<ExperimentConfig> &cfgs, SweepOptions opts = {});

/**
 * Writes @p results as structured JSON to @p path (atomically, via a
 * temporary + rename).  Used by SweepRunner for RNR_JSON_OUT / --json;
 * callable directly for ad-hoc exports.  Returns false on I/O failure.
 *
 * Schema "rnr-sweep-v2": v1 plus an optional top-level "host" object
 * ({"wall_sec", "peak_rss_bytes"}, emitted when @p host is non-null)
 * recording what the batch cost to produce.  readResultsJson() accepts
 * both versions.
 */
bool writeResultsJson(const std::string &path,
                      const std::vector<ExperimentResult> &results,
                      const std::string &label = "sweep",
                      const SweepHostInfo *host = nullptr);

/**
 * Loads a sweep export written by writeResultsJson() — schema
 * rnr-sweep-v1 or rnr-sweep-v2 — back into ExperimentResult form (the
 * config, footprint fields and per-iteration counters; telemetry blobs
 * are not part of the format).  @p label and @p host receive the
 * file-level fields when non-null (host is zeroed for v1 files).
 * Returns false and sets @p error on malformed input or an unknown
 * schema string.
 */
bool readResultsJson(const std::string &path,
                     std::vector<ExperimentResult> &out,
                     std::string *label = nullptr,
                     SweepHostInfo *host = nullptr,
                     std::string *error = nullptr);

/**
 * Formats the progress reporter's ETA ("12s"), or "--" when the data
 * carries no signal: nothing done yet, no elapsed time, or every
 * finished cell was a warm cache hit (@p simulated == 0) — cache hits
 * complete in microseconds, so extrapolating the remaining *simulated*
 * cells from them would print a nonsense near-zero ETA.  Also guards
 * the division against non-finite results.  Pure; unit-tested.
 */
std::string formatSweepEta(std::size_t done, std::size_t total,
                           std::size_t simulated, double elapsed_sec);

} // namespace rnr

#endif // RNR_HARNESS_SWEEP_H
