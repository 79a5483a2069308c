#include "mem/memory_system.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "sim/timeseries.h"

namespace rnr {

MemorySystem::MemorySystem(const MachineConfig &cfg)
    : cfg_(cfg), llc_(std::make_unique<Cache>(cfg.llc)), dram_(cfg.dram)
{
    for (unsigned c = 0; c < cfg.cores; ++c) {
        CacheConfig l1 = cfg.l1d;
        CacheConfig l2 = cfg.l2;
        l1.name += std::to_string(c);
        l2.name += std::to_string(c);
        l1d_.push_back(std::make_unique<Cache>(l1));
        l2_.push_back(std::make_unique<Cache>(l2));
        tlb_.push_back(std::make_unique<Tlb>(cfg.tlb));
        prefetchers_.push_back(&null_pf_);
        pf_dispatch_.push_back({}); // NullPrefetcher: both hooks off
    }
}

void
MemorySystem::setPrefetcher(unsigned core, Prefetcher *pf)
{
    prefetchers_[core] = pf ? pf : &null_pf_;
    pf_dispatch_[core] = {prefetchers_[core]->wantsAccess(),
                          prefetchers_[core]->hasTargetRegions()};
    if (pf) {
        pf->attach(this, core);
        attachPrefetcher(core);
    }
}

void
MemorySystem::attachPrefetcher(unsigned core)
{
    Prefetcher *pf = prefetchers_[core];
    pf->setTelemetry(probes_.telemetry, core);
    pf->setAttrib(probes_.attrib);
}

void
MemorySystem::attach(const Probes &p)
{
    probes_ = p;
    // Attribution hooks the private L2s only: their counters are the
    // ones SystemCounters folds into IterStats (pf_issued / pf_useful /
    // pf_late_merged), which is what makes the attrib totals reconcile
    // exactly.
    for (unsigned c = 0; c < cfg_.cores; ++c)
        l2_[c]->attach(p, static_cast<std::uint16_t>(c));

    TelemetrySampler *tm = p.telemetry;
    h_miss_latency_ = tm ? &tm->histogram("l2.demand_miss_latency") : nullptr;
    h_pf_latency_ = tm ? &tm->histogram("l2.prefetch_fill_latency") : nullptr;
    if (tm) {
        for (unsigned c = 0; c < cfg_.cores; ++c) {
            const std::string prefix = "core" + std::to_string(c) + ".";
            Cache *l2 = l2_[c].get();
            tm->addSeries(prefix + "l2_mshr_occupancy", [l2] {
                return static_cast<std::uint64_t>(l2->mshr().inFlight());
            });
            tm->addSeries(prefix + "l2_pf_queue_depth", [l2] {
                return static_cast<std::uint64_t>(
                    l2->prefetchQueue().inFlight());
            });
        }
        tm->addSeries("dram.read_queue_depth", [this] {
            return static_cast<std::uint64_t>(dram_.readQueueDepth());
        });
        tm->addSeries("dram.write_queue_depth", [this] {
            return static_cast<std::uint64_t>(dram_.writeQueueDepth());
        });
    }
    // Last, so the prefetchers' series follow the hierarchy's.
    for (unsigned c = 0; c < cfg_.cores; ++c)
        attachPrefetcher(c);
}

void
MemorySystem::control(unsigned core, const TraceRecord &rec, Tick now)
{
    prefetchers_[core]->onControl(rec, now);
}

Tick
MemorySystem::accessShared(Addr block, Tick now, ReqOrigin origin)
{
    Cache &llc = *llc_;
    llc.mshr().purge(now);

    if (CacheLine *line = llc.access(block, now))
        return std::max(now, line->fill_time) + llc.config().latency;

    if (Mshr::Entry *e = llc.mshr().find(block))
        return std::max(now, e->fill) + llc.config().latency;

    Tick t = now;
    if (llc.mshr().full()) {
        t = std::max(t, llc.mshr().earliestFill());
        llc.mshr().purge(t);
        ++llc.ctr().mshr_full_stalls;
    }

    const Tick done = dram_.read(block << kBlockBits,
                                 t + llc.config().latency, origin);
    llc.mshr().insert(block, done, origin == ReqOrigin::Prefetch);
    EvictResult ev = llc.insert(block, done,
                                origin == ReqOrigin::Prefetch, false);
    if (ev.valid && ev.dirty)
        dram_.write(ev.block << kBlockBits, done, ReqOrigin::Writeback);
    return done;
}

void
MemorySystem::handleL2Evict(unsigned core, const EvictResult &ev, Tick now)
{
    if (!ev.valid)
        return;
    if (ev.dirty) {
        // Writeback lands in the LLC if the block is still there (it is,
        // for a mostly-inclusive hierarchy); otherwise it goes off-chip.
        if (const CacheLine *line = llc_->peek(ev.block)) {
            const_cast<CacheLine *>(line)->dirty = true;
        } else {
            dram_.write(ev.block << kBlockBits, now, ReqOrigin::Writeback);
        }
    }
    if (ev.prefetched) // the only victims a prefetcher acts on
        prefetchers_[core]->onEvict(ev.block);
}

DemandResult
MemorySystem::demandAccess(unsigned core, Addr vaddr, bool is_write,
                           std::uint32_t pc, Tick now)
{
    DemandResult res;
    Cache &l1 = *l1d_[core];
    Cache &l2 = *l2_[core];

    Tick t = now + tlb_[core]->translate(vaddr);
    const Addr block = blockNumber(vaddr);

    // ---- L1 ----
    l1.mshr().purge(t);
    if (CacheLine *line = l1.access(block, t)) {
        if (is_write)
            line->dirty = true;
        res.done = std::max(t, line->fill_time) + l1.config().latency;
        res.l1_hit = true;
        return res;
    }
    if (Mshr::Entry *e = l1.mshr().find(block)) {
        res.done = std::max(t, e->fill) + l1.config().latency;
        if (is_write)
            l1.markDirty(block, t); // will be resident once filled
        ++l1.ctr().mshr_merges;
        return res;
    }
    if (l1.mshr().full()) {
        t = std::max(t, l1.mshr().earliestFill());
        l1.mshr().purge(t);
        ++l1.ctr().mshr_full_stalls;
    }
    const Tick t2 = t + l1.config().latency;

    // ---- L2 ----
    l2.mshr().purge(t2);
    l2.prefetchQueue().purge(t2);
    const PfDispatch pfd = pf_dispatch_[core];
    const bool target =
        pfd.has_targets && prefetchers_[core]->inTargetRegion(vaddr);
    L2AccessInfo info;
    info.core = core;
    info.vaddr = vaddr;
    info.block = block;
    info.pc = pc;
    info.now = t2;
    info.is_write = is_write;
    info.target_struct = target;

    Tick fill;
    if (CacheLine *line = l2.access(block, t2)) {
        fill = std::max(t2, line->fill_time) + l2.config().latency;
        if (is_write)
            line->dirty = true;
        info.hit = true;
        res.l2_hit = true;
        if (target)
            ++l2.ctr().target_accesses;
    } else if (Mshr::Entry *e = l2.mshr().find(block)) {
        fill = std::max(t2, e->fill) + l2.config().latency;
        info.merged = true;
        ++l2.ctr().mshr_merges;
        if (target) {
            ++l2.ctr().target_accesses;
            ++l2.ctr().target_merges;
        }
    } else if (Mshr::Entry *pe = l2.prefetchQueue().find(block)) {
        // Demand caught an in-flight prefetch: a "late" prefetch that
        // still hides part of the miss latency.
        fill = std::max(t2, pe->fill) + l2.config().latency;
        info.merged = true;
        info.merged_into_prefetch = pe->prefetch;
        ++l2.ctr().mshr_merges;
        if (pe->prefetch) {
            ++l2.ctr().demand_merged_into_prefetch;
            if (probes_.attrib)
                probes_.attrib->onLateMerged(pe->site, block);
            pe->prefetch = false; // count each late prefetch once
        }
        if (target) {
            ++l2.ctr().target_accesses;
            ++l2.ctr().target_merges;
        }
    } else {
        res.l2_miss = true;
        Tick t2b = t2;
        if (l2.mshr().full()) {
            t2b = std::max(t2b, l2.mshr().earliestFill());
            l2.mshr().purge(t2b);
            ++l2.ctr().mshr_full_stalls;
        }
        fill = accessShared(block, t2b + l2.config().latency,
                            ReqOrigin::Demand);
        if (h_miss_latency_)
            h_miss_latency_->record(fill - t2);
        l2.mshr().insert(block, fill, false);
        EvictResult ev = l2.insert(block, fill, false, is_write);
        handleL2Evict(core, ev, t2b);
        if (target) {
            ++l2.ctr().target_accesses;
            ++l2.ctr().target_misses;
        }
    }
    if (pfd.wants_access)
        prefetchers_[core]->onAccess(info);

    // ---- L1 fill ----
    if (!l1.mshr().full()) {
        l1.mshr().insert(block, fill, false);
        EvictResult ev = l1.insert(block, fill, false, is_write);
        if (ev.valid && ev.dirty) {
            // L1 victim writes back into the L2.
            l2.markDirty(ev.block, t2);
        }
    }

    res.done = fill;
    return res;
}

inline PrefetchIssue
MemorySystem::issueIntoL2(unsigned core, Cache &l2, Addr block, Tick now,
                          std::uint32_t site)
{
    PrefetchIssue out;
    if (l2.peek(block) || l2.mshr().find(block) ||
        l2.prefetchQueue().find(block)) {
        out.redundant = true;
        ++l2.ctr().prefetch_redundant;
        return out;
    }
    if (l2.prefetchQueue().full()) {
        out.mshr_full = true;
        ++l2.ctr().prefetch_mshr_full;
        return out;
    }

    const Tick fill = accessShared(block, now + l2.config().latency,
                                   ReqOrigin::Prefetch);
    if (h_pf_latency_)
        h_pf_latency_->record(fill - now);
    l2.prefetchQueue().insert(block, fill, true, site);
    EvictResult ev = l2.insert(block, fill, true, false, site);
    handleL2Evict(core, ev, now);
    ++l2.ctr().prefetches_issued;
    if (probes_.attrib)
        probes_.attrib->onIssued(site, block);

    out.issued = true;
    out.fill_time = fill;
    return out;
}

PrefetchIssue
MemorySystem::prefetchIntoL2(unsigned core, Addr vaddr, Tick now,
                             std::uint32_t site)
{
    Cache &l2 = *l2_[core];
    l2.mshr().purge(now);
    l2.prefetchQueue().purge(now);
    return issueIntoL2(core, l2, blockNumber(vaddr), now, site);
}

FootprintIssue
MemorySystem::prefetchFootprintIntoL2(unsigned core, Addr base_block,
                                      std::uint64_t mask, Tick now,
                                      std::uint32_t site)
{
    FootprintIssue out;
    Cache &l2 = *l2_[core];
    l2.mshr().purge(now);
    l2.prefetchQueue().purge(now);
    for (; mask; mask &= mask - 1) {
        const Addr block =
            base_block + static_cast<unsigned>(std::countr_zero(mask));
        const PrefetchIssue r = issueIntoL2(core, l2, block, now, site);
        // One purge per batch is exact only while nothing issued here
        // completes by `now`.
        assert(!r.issued || r.fill_time > now);
        out.issued += r.issued;
        out.redundant += r.redundant;
        out.mshr_full += r.mshr_full;
    }
    return out;
}

Tick
MemorySystem::metadataRead(Addr addr, std::uint64_t bytes, Tick now)
{
    Tick done = now;
    for (Addr a = blockAlign(addr); a < addr + bytes; a += kBlockSize)
        done = dram_.read(a, now, ReqOrigin::Metadata);
    return done;
}

void
MemorySystem::metadataWrite(Addr addr, std::uint64_t bytes, Tick now)
{
    for (Addr a = blockAlign(addr); a < addr + bytes; a += kBlockSize)
        dram_.write(a, now, ReqOrigin::Metadata);
}

void
MemorySystem::resetTiming()
{
    dram_.resetTiming();
}

} // namespace rnr
