/**
 * @file
 * Experiment runner: builds the machine, the workload and the per-core
 * prefetchers for an ExperimentConfig, simulates the requested number of
 * algorithm iterations and collects the per-iteration counters.
 *
 * Two entry points: runExperiment() (cached, single-flight; what the
 * benches and sweeps call) and runExperimentUncached() (always
 * simulates, with the Probes the caller gives or RNR_OBS asks for).
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
#include "sim/probes.h"
#include "workloads/workload.h"

namespace rnr {

/** Instantiates the workload named by @p cfg (app + input). */
std::unique_ptr<Workload> makeWorkload(const ExperimentConfig &cfg);

/**
 * What the one observability switch asks every simulated run to carry:
 * RNR_OBS is a comma-separated list of `telemetry` and `attrib` (unset
 * or empty = all off), RNR_OBS_OUT the prefix the runner writes their
 * output under.
 */
struct ObsSwitch {
    bool telemetry = false;
    bool attrib = false;
    std::string out = "rnr_obs"; ///< RNR_OBS_OUT when set and non-empty.
};

/** Parses RNR_OBS and RNR_OBS_OUT.  An unknown token is ignored with
 *  one `rnr: warning:` line on stderr per distinct RNR_OBS value. */
ObsSwitch obsSwitch();

/**
 * Simulates @p cfg: no result cache, no locking — a cache hit would
 * return counters without producing events, samples or attribution.
 *
 * Every probe in @p probes (sim/probes.h) is attached as given; a null
 * one is built here when RNR_OBS names it (obsSwitch()).  None of them
 * changes the returned counters (tests/harness/runner_test.cc asserts
 * bit-equality with both attached).  The probes are reset at the
 * start of every attempt — a capture that fails and reruns without the
 * store, a corrupt replay that recaptures — so they hold the attempt
 * that produced the result and nothing else, and they are detached
 * from the simulated machine before this returns.  Every sampler's and
 * collector's harvest lands on the result (ExperimentResult::telemetry
 * / ::attrib).
 *
 * When this call built a probe, what the run's probes saw is written
 * to `<prefix>.explain.json` under the RNR_OBS_OUT prefix: the
 * rnr-explain-v2 document of harness/explain.h, without a baseline and
 * with null for a probe that is off.  A run whose probes are all the
 * caller's writes nothing.  Parallel cells share the one prefix; the
 * file is written atomically and the last writer wins, so observe
 * single cells, not whole sweeps.
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
