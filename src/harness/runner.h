/**
 * @file
 * Experiment runner: builds the machine, the workload and the per-core
 * prefetchers for an ExperimentConfig, simulates the requested number of
 * algorithm iterations and collects the per-iteration counters.
 *
 * Two entry points: runExperiment() (cached, single-flight; what the
 * benches and sweeps call) and runExperimentUncached() (always
 * simulates, optionally with caller-owned Probes attached).
 *
 * Results are cached through harness/result_cache.h (in-process memo +
 * optional on-disk store) keyed by ExperimentConfig::key(), so the per-figure
 * bench binaries share one simulation of each matrix cell instead of
 * re-simulating.  runExperiment() is thread-safe and single-flight:
 * concurrent calls with the same key block on one simulation instead of
 * racing — this is what lets SweepRunner (harness/sweep.h) saturate every
 * core on a cold cache.
 *
 * Below the result cache sits the trace store (tracestore/trace_store.h,
 * RNR_TRACE_STORE=0 to disable): the first simulation of a workload key
 * captures the emitted trace into a compressed on-disk corpus; every
 * further simulation of that workload — different prefetcher, control
 * mode or ideal-LLC setting, another process, another day — replays the
 * stored trace block-by-block instead of re-executing the workload
 * natively.  Replay is counter-for-counter identical to native emission
 * (tests/harness/trace_replay_test.cc asserts bit-equality).
 */
#ifndef RNR_HARNESS_RUNNER_H
#define RNR_HARNESS_RUNNER_H

#include <cstdint>
#include <memory>
#include <string>

#include "harness/experiment.h"
#include "sim/trace_event.h"
#include "workloads/workload.h"

namespace rnr {

class AttribCollector;
class TelemetrySampler;

/** Instantiates the workload named by @p cfg (app + input). */
std::unique_ptr<Workload> makeWorkload(const ExperimentConfig &cfg);

/**
 * The instruments a run can carry, all caller-owned and any of them
 * null: events into @p trace (built for cfg.cores tracks), periodic
 * counter samples into @p telemetry, prefetch-quality attribution into
 * @p attrib.  None of them changes the returned counters
 * (tests/sim/trace_event_test.cc, tests/harness/report_test.cc and
 * tests/sim/attrib_test.cc assert bit-equality).
 */
struct Probes {
    TraceCollector *trace = nullptr;
    TelemetrySampler *telemetry = nullptr;
    AttribCollector *attrib = nullptr;
};

/**
 * Simulates @p cfg: no result cache, no locking — a cache hit would
 * return counters without producing events, samples or attribution.
 *
 * A probe in @p probes is attached as given.  A null one is built from
 * cfg/env: a TraceCollector when cfg.trace.enabled or RNR_TRACE=1, a
 * TelemetrySampler when cfg.telemetry.enabled or RNR_SAMPLE_CYCLES>0,
 * an AttribCollector when cfg.attrib.enabled or RNR_ATTRIB=1.  Every
 * attached sampler's and collector's harvest lands on the result
 * (ExperimentResult::telemetry / ::attrib; attribution is also mirrored
 * into the process metrics registry).  The trace sinks fire only for a
 * collector built here: the Chrome-trace JSON goes to
 * cfg.trace.json_out (or $RNR_TRACE_OUT) and the per-window replay
 * report to stderr when RNR_TRACE_REPORT=1.
 */
ExperimentResult runExperimentUncached(const ExperimentConfig &cfg,
                                       const Probes &probes = {});

/**
 * Simulates @p cfg, consulting the in-process cache and the on-disk one
 * (the directory $RNR_CACHE_FILE, default "rnr_results.cache" in the
 * working directory; set RNR_CACHE=0 to disable persistence).
 *
 * Thread-safe.  If @p was_cached is non-null it is set to true when the
 * result came from either cache layer (or from another thread's
 * concurrent in-flight simulation of the same key) and false when this
 * call ran the simulation itself.
 */
ExperimentResult runExperiment(const ExperimentConfig &cfg,
                               bool *was_cached = nullptr);

/** Convenience: the no-prefetcher baseline matching @p cfg. */
ExperimentResult runBaseline(const ExperimentConfig &cfg);

/**
 * Number of simulations this process actually ran (cache misses in
 * runExperiment plus direct runExperimentUncached calls).  Monotonic;
 * used by the concurrency tests to assert single-flight behaviour.
 */
std::uint64_t experimentsSimulated();

} // namespace rnr

#endif // RNR_HARNESS_RUNNER_H
