#include "core/switch_schedule.h"

#include <algorithm>
#include <vector>

#include "ckpt/serde.h"
#include "core/rnr_prefetcher.h"
#include "mem/memory_system.h"
#include "sim/config.h"
#include "sim/rng.h"

namespace rnr {

namespace {

/** Per-tenant layout: disjoint target ranges and metadata tables. */
constexpr Addr kTargetBase = 0x10000000;
constexpr Addr kTargetStride = 0x04000000;
constexpr Addr kSeqBase = 0x70000000;
constexpr Addr kDivStride = 0x01000000;
constexpr Addr kTableStride = 0x02000000;

/** Ticks between accesses; generous enough to keep misses ordered. */
constexpr Tick kAccessGap = 800;

/** A machine small enough that cross-tenant cache pollution is real. */
MachineConfig
stormMachine()
{
    MachineConfig m = MachineConfig::scaledDefault();
    m.cores = 1;
    m.l1d.size_bytes = 4 * 1024;
    m.l2.size_bytes = 16 * 1024;
    m.llc.size_bytes = 128 * 1024;
    return m;
}

std::vector<std::uint8_t>
saveTenant(RnrPrefetcher &pf)
{
    ckpt::Ser s;
    pf.visitState(s);
    return s.take();
}

void
loadTenant(RnrPrefetcher &pf, const std::vector<std::uint8_t> &blob)
{
    ckpt::Deser d(blob);
    pf.visitState(d);
}

/** The four Fig 11 timeliness counters, for delta accounting across a
 *  quantum (restores may roll the absolute values back). */
struct TimelinessSnap {
    std::uint64_t ontime, early, late, oow;

    static TimelinessSnap
    capture(const RnrPrefetcher &pf)
    {
        return {pf.ctr().pf_ontime.value(), pf.ctr().pf_early.value(),
                pf.ctr().pf_late.value(),
                pf.ctr().pf_out_of_window.value()};
    }
};

} // namespace

double
SwitchStormResult::accuracy() const
{
    return pf_issued ? static_cast<double>(pf_useful) /
                           static_cast<double>(pf_issued)
                     : 0.0;
}

double
SwitchStormResult::hitRate() const
{
    return replay_accesses ? static_cast<double>(replay_hits) /
                                 static_cast<double>(replay_accesses)
                           : 0.0;
}

SwitchStormResult
runSwitchStorm(const SwitchStormConfig &cfg)
{
    SwitchStormResult res;
    res.arch_state_bytes = RnrPrefetcher::contextSwitchBytes();

    MemorySystem ms(stormMachine());
    RnrPrefetcher::Options opts;
    opts.window_size = cfg.window_size;
    RnrPrefetcher pf(opts);
    ms.setPrefetcher(0, &pf);

    Tick now = 0;
    auto ctl = [&](RnrOp op, Addr p0 = 0, std::uint64_t p1 = 0) {
        pf.onControl(TraceRecord::control(op, p0, p1), now);
    };
    auto access = [&](Addr a) {
        const DemandResult r = ms.demandAccess(0, a, false, 1, now);
        now += kAccessGap;
        return r;
    };

    // Deterministic per-tenant traversal patterns.
    const std::uint64_t span_bytes =
        std::uint64_t{cfg.span_blocks} * kBlockSize;
    std::vector<std::vector<Addr>> pattern(cfg.tenants);
    for (unsigned t = 0; t < cfg.tenants; ++t) {
        Rng rng(cfg.seed + t * 0x9e3779b97f4a7c15ull);
        const Addr base = kTargetBase + Addr{t} * kTargetStride;
        pattern[t].reserve(cfg.seq_len);
        for (unsigned i = 0; i < cfg.seq_len; ++i)
            pattern[t].push_back(
                base + (rng.next64() % cfg.span_blocks) * kBlockSize);
    }

    // The pristine engine state every tenant starts from.
    const std::vector<std::uint8_t> pristine = saveTenant(pf);

    // ---- Record phase: each tenant records uninterrupted, then its
    // paused post-record state becomes the tenant's initial buffer.
    std::vector<std::vector<std::uint8_t>> replay0(cfg.tenants);
    for (unsigned t = 0; t < cfg.tenants; ++t) {
        loadTenant(pf, pristine);
        const Addr base = kTargetBase + Addr{t} * kTargetStride;
        ctl(RnrOp::Init, kSeqBase + Addr{t} * kTableStride,
            kSeqBase + kDivStride + Addr{t} * kTableStride);
        ctl(RnrOp::AddrBaseSet, base, span_bytes);
        ctl(RnrOp::AddrEnable, base);
        ctl(RnrOp::Start);
        for (Addr a : pattern[t])
            access(a);
        res.recorded_entries += pf.sequence().size();
        ctl(RnrOp::Pause); // paused_from = Record
        replay0[t] = saveTenant(pf);
    }

    // Drop the record-phase cache contents so replay-phase hits come
    // from replay prefetching (or genuine reuse), not record warmth.
    ms.l1d(0).reset();
    ms.l2(0).reset();
    ms.llc().reset();
    ms.resetTiming();

    const std::uint64_t issued0 =
        ms.l2(0).ctr().prefetches_issued.value();
    const std::uint64_t useful0 =
        ms.l2(0).ctr().prefetch_useful.value() +
        ms.l2(0).ctr().demand_merged_into_prefetch.value();

    // ---- Replay storm: round-robin quanta across the tenants.
    std::vector<std::vector<std::uint8_t>> live = replay0;
    std::vector<bool> replay_started(cfg.tenants, false);
    std::vector<unsigned> cursor(cfg.tenants, 0);
    const unsigned quantum = std::max(1u, cfg.quantum);
    bool work_left = true;
    while (work_left) {
        work_left = false;
        for (unsigned t = 0; t < cfg.tenants; ++t) {
            if (cursor[t] >= cfg.seq_len)
                continue;
            work_left = true;

            // Switch-in.  With save/restore the tenant continues from
            // its own buffer; without, the post-record state is all
            // software can reconstruct, so replay restarts at entry 0.
            if (cfg.save_restore) {
                loadTenant(pf, live[t]);
                ctl(RnrOp::Resume);
                if (!replay_started[t]) {
                    ctl(RnrOp::Replay);
                    replay_started[t] = true;
                }
            } else {
                loadTenant(pf, replay0[t]);
                ctl(RnrOp::Resume);
                ctl(RnrOp::Replay);
            }
            const TimelinessSnap in = TimelinessSnap::capture(pf);

            const unsigned end =
                std::min(cursor[t] + quantum, cfg.seq_len);
            for (; cursor[t] < end; ++cursor[t]) {
                const DemandResult r = access(pattern[t][cursor[t]]);
                ++res.replay_accesses;
                if (r.l1_hit || r.l2_hit)
                    ++res.replay_hits;
            }

            // Switch-out.
            ctl(RnrOp::Pause);
            const TimelinessSnap out = TimelinessSnap::capture(pf);
            res.pf_ontime += out.ontime - in.ontime;
            res.pf_early += out.early - in.early;
            res.pf_late += out.late - in.late;
            res.pf_out_of_window += out.oow - in.oow;
            if (cfg.save_restore) {
                live[t] = saveTenant(pf);
                res.state_bytes_per_switch = std::max(
                    res.state_bytes_per_switch,
                    static_cast<std::uint64_t>(live[t].size()));
            }
            ++res.switches;
        }
    }

    res.pf_issued =
        ms.l2(0).ctr().prefetches_issued.value() - issued0;
    res.pf_useful = ms.l2(0).ctr().prefetch_useful.value() +
                    ms.l2(0).ctr().demand_merged_into_prefetch.value() -
                    useful0;
    return res;
}

} // namespace rnr
