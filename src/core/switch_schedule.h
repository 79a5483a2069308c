/**
 * @file
 * Context-switch storm scenarios for RnR (Section IV-C).
 *
 * The paper argues that RnR survives context switches because its
 * architectural state is small enough for the OS to save and restore
 * alongside the rest of the thread context (contextSwitchBytes()).
 * This module turns that claim into a measurable scenario: several
 * ASID-tagged tenants share one core's RnR engine, the scheduler
 * round-robins them on a configurable quantum, and on every switch the
 * outgoing tenant's RnR state is either
 *
 *   - saved to its per-tenant buffer and restored on switch-in
 *     (save_restore = true, the paper's design), or
 *   - dropped, so the incoming tenant restarts its replay from the
 *     beginning of its sequence (save_restore = false, the strawman
 *     where RnR state does not travel with the thread).
 *
 * Each tenant first records its own miss sequence over a private
 * target range, then the storm replays every tenant's traversal under
 * preemption.  The A/B difference shows up exactly where the paper
 * predicts: the state-losing baseline re-issues the head of its
 * sequence every quantum (accuracy loss) and never reaches the tail
 * in-window (timeliness loss), while the save/restore schedule matches
 * an unpreempted replay.
 *
 * Used by tests/core/switch_schedule_test.cc and the Fig 15 harness
 * (bench/fig15_switch_storm.cc).
 */
#ifndef RNR_CORE_SWITCH_SCHEDULE_H
#define RNR_CORE_SWITCH_SCHEDULE_H

#include <cstdint>

namespace rnr {

/** One context-switch storm's shape. */
struct SwitchStormConfig {
    /** Concurrent address spaces sharing the core's RnR engine. */
    unsigned tenants = 4;
    /** Demand accesses per scheduling quantum (switch period). */
    unsigned quantum = 32;
    /** Recorded misses per tenant (length of each replay). */
    unsigned seq_len = 256;
    /** RnR window size in blocks (0 = the paper default). */
    std::uint32_t window_size = 16;
    /** Span of each tenant's target range, in blocks. */
    unsigned span_blocks = 1024;
    /** Pattern seed (tenant t derives its own stream from it). */
    std::uint64_t seed = 1;
    /** True = RnR state travels with the tenant (the paper's design);
     *  false = state is lost on every switch (strawman baseline). */
    bool save_restore = true;
};

/** What one storm did; all counters cover the replay phase only. */
struct SwitchStormResult {
    std::uint64_t switches = 0;          ///< Switch-outs performed.
    std::uint64_t recorded_entries = 0;  ///< Sum over tenants.
    /** Largest serialized per-tenant state, i.e. what the simulator
     *  moves per switch.  The paper's architectural payload — what
     *  real hardware would expose to the OS — is arch_state_bytes. */
    std::uint64_t state_bytes_per_switch = 0;
    std::uint64_t arch_state_bytes = 0;  ///< contextSwitchBytes().
    std::uint64_t pf_issued = 0;         ///< L2 prefetches issued.
    std::uint64_t pf_useful = 0;         ///< Hit or merged-into.
    std::uint64_t pf_ontime = 0;
    std::uint64_t pf_early = 0;
    std::uint64_t pf_late = 0;
    std::uint64_t pf_out_of_window = 0;
    std::uint64_t replay_accesses = 0;
    std::uint64_t replay_hits = 0;       ///< L1 or L2 demand hits.

    /** Useful fraction of issued prefetches (0 when none issued). */
    double accuracy() const;
    /** Demand hit rate over the replay phase (0 when no accesses). */
    double hitRate() const;
};

/**
 * Runs one storm to completion.  Deterministic: the result is a pure
 * function of the config (fixed tenant patterns, fixed interleaving),
 * so A/B comparisons isolate the save_restore flag.
 */
SwitchStormResult runSwitchStorm(const SwitchStormConfig &cfg);

} // namespace rnr

#endif // RNR_CORE_SWITCH_SCHEDULE_H
