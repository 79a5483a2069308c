/**
 * @file
 * Context-switch storm tests: determinism, switch accounting, and the
 * paper's A/B — saving/restoring RnR state across switches preserves
 * replay accuracy and hit rate, losing it does not.
 */
#include <gtest/gtest.h>

#include "core/switch_schedule.h"
#include "core/rnr_prefetcher.h"

namespace rnr {
namespace {

SwitchStormConfig
stormy()
{
    SwitchStormConfig cfg;
    cfg.tenants = 4;
    cfg.quantum = 16;
    cfg.seq_len = 192;
    cfg.window_size = 16;
    return cfg;
}

TEST(SwitchSchedule, StormIsDeterministic)
{
    const SwitchStormConfig cfg = stormy();
    const SwitchStormResult a = runSwitchStorm(cfg);
    const SwitchStormResult b = runSwitchStorm(cfg);
    EXPECT_EQ(a.switches, b.switches);
    EXPECT_EQ(a.recorded_entries, b.recorded_entries);
    EXPECT_EQ(a.state_bytes_per_switch, b.state_bytes_per_switch);
    EXPECT_EQ(a.pf_issued, b.pf_issued);
    EXPECT_EQ(a.pf_useful, b.pf_useful);
    EXPECT_EQ(a.pf_ontime, b.pf_ontime);
    EXPECT_EQ(a.pf_early, b.pf_early);
    EXPECT_EQ(a.pf_late, b.pf_late);
    EXPECT_EQ(a.pf_out_of_window, b.pf_out_of_window);
    EXPECT_EQ(a.replay_accesses, b.replay_accesses);
    EXPECT_EQ(a.replay_hits, b.replay_hits);
}

TEST(SwitchSchedule, QuantumControlsSwitchCount)
{
    SwitchStormConfig cfg = stormy();
    const unsigned quanta_per_tenant =
        (cfg.seq_len + cfg.quantum - 1) / cfg.quantum;
    const SwitchStormResult r = runSwitchStorm(cfg);
    EXPECT_EQ(r.switches, std::uint64_t{cfg.tenants} * quanta_per_tenant);
    EXPECT_EQ(r.replay_accesses,
              std::uint64_t{cfg.tenants} * cfg.seq_len);
    EXPECT_GT(r.recorded_entries, 0u);
    EXPECT_LE(r.recorded_entries,
              std::uint64_t{cfg.tenants} * cfg.seq_len);
}

TEST(SwitchSchedule, StateAccountingMatchesTheDesign)
{
    SwitchStormConfig cfg = stormy();
    const SwitchStormResult saved = runSwitchStorm(cfg);
    // The paper's per-switch architectural payload is fixed and small.
    EXPECT_EQ(saved.arch_state_bytes, RnrPrefetcher::contextSwitchBytes());
    EXPECT_GT(saved.arch_state_bytes, 0u);
    // The simulator's full-model state is larger (it carries the
    // in-memory tables too) but still bounded and reported.
    EXPECT_GE(saved.state_bytes_per_switch, saved.arch_state_bytes);

    cfg.save_restore = false;
    const SwitchStormResult lost = runSwitchStorm(cfg);
    EXPECT_EQ(lost.state_bytes_per_switch, 0u); // nothing travels
    EXPECT_EQ(lost.switches, saved.switches);   // same schedule
}

TEST(SwitchSchedule, SaveRestoreBeatsStateLossUnderPressure)
{
    SwitchStormConfig cfg = stormy();
    const SwitchStormResult saved = runSwitchStorm(cfg);
    cfg.save_restore = false;
    const SwitchStormResult lost = runSwitchStorm(cfg);

    // With its state travelling, replay tracks the demand cursor and
    // serves it; with state lost, replay restarts at the head of the
    // sequence every quantum and the tail is never covered.
    EXPECT_GT(saved.replay_hits, lost.replay_hits);
    EXPECT_GT(saved.pf_useful, lost.pf_useful);
    EXPECT_GE(saved.accuracy(), lost.accuracy());
    EXPECT_GT(saved.hitRate(), lost.hitRate());
}

TEST(SwitchSchedule, LongQuantumApproachesUnpreemptedReplay)
{
    // One quantum spanning the whole sequence = a single switch per
    // tenant; the save/restore machinery must not perturb that case.
    SwitchStormConfig cfg = stormy();
    cfg.quantum = cfg.seq_len;
    const SwitchStormResult one = runSwitchStorm(cfg);
    EXPECT_EQ(one.switches, std::uint64_t{cfg.tenants});

    // Preempting with save/restore keeps most of the unpreempted hit
    // rate (cache pollution between quanta costs a little; the state
    // itself loses nothing).
    cfg.quantum = 16;
    const SwitchStormResult many = runSwitchStorm(cfg);
    EXPECT_GT(many.hitRate(), 0.5 * one.hitRate());
}

} // namespace
} // namespace rnr
