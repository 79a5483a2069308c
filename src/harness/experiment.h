/**
 * @file
 * Experiment configuration and raw results.
 *
 * One ExperimentConfig names a cell of the evaluation matrix (workload x
 * input x prefetcher x RnR options); the runner simulates it and returns
 * per-iteration counter snapshots from which every figure's metric is
 * derived (harness/metrics.h).
 */
#ifndef RNR_HARNESS_EXPERIMENT_H
#define RNR_HARNESS_EXPERIMENT_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/replay_control.h"
#include "prefetch/factory.h"
#include "sim/types.h"

namespace rnr {

struct AttribBlob;
struct TelemetryBlob;

/**
 * Observability knobs (sim/trace_event.h), carried by ExperimentConfig.
 *
 * Deliberately excluded from ExperimentConfig::key(): tracing is
 * observation-only (a traced run's counters are bit-identical to an
 * untraced run's), so the results are interchangeable cache-wise.  The
 * flip side: runExperiment() may satisfy a traced config from the cache
 * without simulating, producing no events — call runExperimentTraced()
 * when events are the point.
 */
struct TraceOptions {
    bool enabled = false;      ///< Collect events (or RNR_TRACE=1).
    std::string json_out;      ///< Chrome-trace path ("" = RNR_TRACE_OUT).
    std::size_t ring_capacity = 0; ///< Events/track; 0 = env or default.
};

/**
 * Time-series sampling knobs (sim/timeseries.h), carried by
 * ExperimentConfig.  Excluded from key()/workloadKey() for the same
 * reason as TraceOptions: sampling is observation-only (a sampled run's
 * IterStats are bit-identical to an unsampled run's), so results are
 * cache-interchangeable.  A cache hit carries no telemetry blob — run
 * with the cache disabled (or via harness/report.h) when the series are
 * the point.
 */
struct TelemetryOptions {
    bool enabled = false;    ///< Sample counters (or RNR_SAMPLE_CYCLES).
    Tick sample_cycles = 0;  ///< Sampling period; 0 = env or default.
};

/**
 * Prefetch-quality attribution knobs (sim/attrib.h), carried by
 * ExperimentConfig.  Excluded from key() like the other observability
 * options: attribution is observation-only (an attributed run's
 * IterStats are bit-identical to an unattributed run's), so results are
 * cache-interchangeable.  A cache hit carries no attrib blob — disable
 * the cache (or go through harness/report.h, which does) when the
 * per-site tables are the point.
 */
struct AttribOptions {
    bool enabled = false;       ///< Collect attribution (or RNR_ATTRIB=1).
    std::size_t site_top_k = 0;   ///< Sites kept exactly; 0 = default (64).
    std::size_t region_top_k = 0; ///< Regions kept exactly; 0 = default.
};

/** "none" / "window" / "window+pace" (sweep JSON, reports). */
const char *replayControlName(ReplayControlMode mode);

/** Inverse of replayControlName(); false on an unknown name. */
bool replayControlFromName(const std::string &name,
                           ReplayControlMode &out);

/** One cell of the evaluation matrix. */
struct ExperimentConfig {
    std::string app = "pagerank";   ///< pagerank | hyperanf | spcg.
    std::string input = "urand";    ///< Table III input name.
    PrefetcherKind prefetcher = PrefetcherKind::None;
    ReplayControlMode control = ReplayControlMode::WindowPace;
    std::uint32_t window_size = 0;  ///< 0 = hardware default (half L2).
    unsigned iterations = 3;        ///< Simulated iterations.
    unsigned cores = 4;
    bool ideal_llc = false;         ///< Fig 6's "ideal" bar.
    TraceOptions trace;             ///< Observation-only; not in key().
    TelemetryOptions telemetry;     ///< Observation-only; not in key().
    AttribOptions attrib;           ///< Observation-only; not in key().

    /**
     * Workload half of the key: every field that shapes the *emitted
     * trace* (app, input, window size, iterations, cores) and nothing
     * that only shapes the simulation.  This is what the trace store
     * keys entries by — the 6+ prefetcher configs of one figure row all
     * replay the one trace captured under this key.  window_size stays
     * in: it changes the WindowSize.set control payload in the trace.
     */
    std::string workloadKey() const;

    /** Stable cache key / display id: workloadKey() plus the
     *  simulation-only fields (prefetcher, control mode, ideal LLC). */
    std::string key() const;
};

/**
 * X-macro over every per-iteration counter field, in the order they are
 * declared, serialized (result cache), and exported (sweep JSON).  This
 * is the single source of truth shared by IterStats, SystemCounters
 * (harness/system_counters.h), the cache codec and the JSON writer —
 * adding a field here propagates everywhere.
 *
 * The order is ABI for the on-disk result cache: appending at the end is
 * the only compatible change (and still invalidates old cache files,
 * which self-describe via their header line).
 *
 * Field semantics:
 *   cycles / instructions     filled from IterationResult, not counters
 *   l2_demand_misses          true misses (MSHR merges excluded)
 *   pf_useful                 demand hits on prefetched lines
 *   pf_late_merged            demands merged into in-flight prefetches
 *   rnr_*                     Fig 11 timeliness taxonomy
 *   rnr_recorded              misses recorded this iteration
 */
#define RNR_ITER_STAT_FIELDS(X)                                             \
    X(Tick, cycles)                                                         \
    X(std::uint64_t, instructions)                                          \
    X(std::uint64_t, l2_accesses)                                           \
    X(std::uint64_t, l2_demand_misses)                                      \
    X(std::uint64_t, pf_issued)                                             \
    X(std::uint64_t, pf_useful)                                             \
    X(std::uint64_t, pf_late_merged)                                        \
    X(std::uint64_t, dram_bytes_total)                                      \
    X(std::uint64_t, dram_bytes_demand)                                     \
    X(std::uint64_t, dram_bytes_prefetch)                                   \
    X(std::uint64_t, dram_bytes_metadata)                                   \
    X(std::uint64_t, dram_bytes_writeback)                                  \
    X(std::uint64_t, rnr_ontime)                                            \
    X(std::uint64_t, rnr_early)                                             \
    X(std::uint64_t, rnr_late)                                              \
    X(std::uint64_t, rnr_out_of_window)                                     \
    X(std::uint64_t, rnr_recorded)

/** Counter snapshot for one simulated iteration (summed over cores). */
struct IterStats {
#define RNR_DEFINE_FIELD(type, name) type name = 0;
    RNR_ITER_STAT_FIELDS(RNR_DEFINE_FIELD)
#undef RNR_DEFINE_FIELD
};

/** Full raw result of one experiment. */
struct ExperimentResult {
    ExperimentConfig config;
    std::vector<IterStats> iterations;
    std::uint64_t input_bytes = 0;    ///< workload input footprint
    std::uint64_t target_bytes = 0;   ///< irregular structure footprint
    std::uint64_t seq_table_bytes = 0; ///< peak RnR metadata (Fig 13)
    std::uint64_t div_table_bytes = 0;

    /** Harvested time-series/histograms when sampling was on; null
     *  otherwise (and always null on result-cache hits — the cache
     *  codec stores counters only). */
    std::shared_ptr<const TelemetryBlob> telemetry;

    /** Per-site/per-region attribution tables when attribution was on;
     *  null otherwise (and always null on result-cache hits). */
    std::shared_ptr<const AttribBlob> attrib;

    const IterStats &first() const { return iterations.front(); }
    /** Steady-state iteration (the last simulated one). */
    const IterStats &steady() const { return iterations.back(); }
};

} // namespace rnr

#endif // RNR_HARNESS_EXPERIMENT_H
