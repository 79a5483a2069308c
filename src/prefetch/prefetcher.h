/**
 * @file
 * Common interface for every hardware prefetcher in the repository.
 *
 * Following the paper's design-space discussion (Section III), every
 * prefetcher — baselines and RnR alike — is attached to a private L2 and
 * prefetches into that L2.  The L2 invokes onAccess() for each demand
 * access (hits and misses, with the outcome already resolved, like
 * ChampSim's prefetcher_operate) and onEvict() when a line leaves the L2.
 * RnR additionally receives the software interface's control records via
 * onControl().
 */
#ifndef RNR_PREFETCH_PREFETCHER_H
#define RNR_PREFETCH_PREFETCHER_H

#include <string>

#include "sim/stats.h"
#include "sim/types.h"
#include "trace/record.h"

namespace rnr {

class AttribCollector;
class MemorySystem;
class TelemetrySampler;
class TraceCollector;
class Workload;

/** Everything the L2 tells its prefetcher about one demand access. */
struct L2AccessInfo {
    unsigned core = 0;
    Addr vaddr = 0;
    Addr block = 0;        ///< Block number (vaddr >> 6).
    std::uint32_t pc = 0;
    Tick now = 0;
    bool is_write = false;
    bool hit = false;      ///< Resident in the L2 (possibly still filling).
    bool merged = false;   ///< Miss merged into an in-flight MSHR entry.
    bool merged_into_prefetch = false; ///< ...that a prefetch allocated.
    bool target_struct = false; ///< Inside an enabled RnR boundary range.
};

/** Outcome of asking the L2 to prefetch a block. */
struct PrefetchIssue {
    bool issued = false;    ///< A new prefetch went out.
    bool redundant = false; ///< Block already resident or in flight.
    bool mshr_full = false; ///< No MSHR slot; caller may retry later.
    Tick fill_time = 0;     ///< Valid when issued.
};

/** Per-outcome block counts of one footprint request. */
struct FootprintIssue {
    unsigned issued = 0;
    unsigned redundant = 0;
    unsigned mshr_full = 0;
};

/** Abstract base for L2-attached prefetchers. */
class Prefetcher
{
  public:
    Prefetcher();
    virtual ~Prefetcher() = default;

    /** Binds this prefetcher to @p core of @p ms; called once by setup. */
    virtual void attach(MemorySystem *ms, unsigned core);

    /**
     * Lets a prefetcher pull whatever software-provided hints it needs
     * from the workload (DROPLET's edge->vertex indirection, IMP's
     * index-value sniffer, ...).  Called once per core by the harness
     * after construction; the default needs nothing, so adding a
     * prefetcher never means editing the runner's wiring code.
     */
    virtual void configureFor(const Workload &wl, unsigned core)
    {
        (void)wl;
        (void)core;
    }

    /** Invoked for every L2 demand access, after hit/miss resolution. */
    virtual void onAccess(const L2AccessInfo &info) = 0;

    /** Invoked when a prefetch-filled line of @p block is evicted from
     *  the L2 (EvictResult::prefetched); other victims are not reported. */
    virtual void onEvict(Addr block) { (void)block; }

    /** Invoked for RnR software-interface records; others ignore them. */
    virtual void onControl(const TraceRecord &rec, Tick now)
    {
        (void)rec;
        (void)now;
    }

    /**
     * True when @p vaddr falls in a software-declared target region.
     * Only RnR overrides this; the memory system uses it to set
     * L2AccessInfo::target_struct and to let a companion stream
     * prefetcher skip target-structure misses (Section V-D).
     */
    virtual bool inTargetRegion(Addr vaddr) const
    {
        (void)vaddr;
        return false;
    }

    /**
     * Install-time dispatch descriptors for the batched kernel: the
     * memory system caches these at setPrefetcher() and skips the
     * per-access onAccess()/inTargetRegion() virtual calls when a flag
     * says they cannot matter.  Defaults are conservative (call me);
     * only a prefetcher whose hooks are provably no-ops should opt out
     * — NullPrefetcher is the one that does, which is what makes the
     * no-prefetch baseline's hot loop virtual-dispatch-free.
     */
    virtual bool wantsAccess() const { return true; }

    /** False promises inTargetRegion() is identically false. */
    virtual bool hasTargetRegions() const { return true; }

    virtual std::string name() const = 0;

    /**
     * Does nothing, and nothing in the simulator calls it: the event
     * trace it once armed is gone.  It stays only because the end-to-
     * end benchmark's TimedPrefetcher (perfbench/traced.cc) overrides
     * it; ROADMAP item 6, the next benchmark change, removes it.
     */
    virtual void setTrace(TraceCollector *, std::uint16_t) {}

    /**
     * Lets a prefetcher register time-series probes with @p tm (null =
     * sampling off; sim/timeseries.h).  The default registers nothing:
     * baseline prefetchers are covered by the memory system's queue
     * probes.  RnR overrides this to expose its replay lane (N_pace,
     * metadata buffer fill).  This and setAttrib are how the probe bus
     * (sim/probes.h) reaches a prefetcher: MemorySystem::attach() and
     * setPrefetcher() call both.
     */
    virtual void
    setTelemetry(TelemetrySampler *tm, unsigned core)
    {
        (void)tm;
        (void)core;
    }

    /**
     * Hands a prefetcher the attribution collector (null = off;
     * sim/attrib.h).  The default needs nothing: site ids flow through
     * the issuePrefetch() site argument, not through the collector.
     * RnR overrides this to report its Fig 11 timeliness classification
     * and its replay-window table; composites forward to their
     * children.  Called by MemorySystem::attach() and setPrefetcher(),
     * like setTelemetry.
     */
    virtual void setAttrib(AttribCollector *at) { (void)at; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  protected:
    /** Asks the attached L2 to fetch @p vaddr's block (into the L2).
     *  @param site attribution site id of this decision — the trigger
     *  PC for pattern prefetchers, attribRnrSite(core) for the RnR
     *  replay lane (sim/attrib.h).  Stored unconditionally (one u32
     *  copy); accounted only when attribution is attached. */
    PrefetchIssue issuePrefetch(Addr vaddr, Tick now,
                                std::uint32_t site = 0);

    /** issuePrefetch() for block @p base_block + i of every set bit i
     *  of @p mask, in ascending order, as one batched request
     *  (MemorySystem::prefetchFootprintIntoL2); same counters, same
     *  outcome. */
    FootprintIssue issueFootprint(Addr base_block, std::uint64_t mask,
                                  Tick now, std::uint32_t site = 0);

    MemorySystem *ms_ = nullptr;
    unsigned core_ = 0;
    StatGroup stats_{"prefetcher"};
    // Handles for the per-issue outcome counters, declared once here;
    // attach() only rename()s the group, so they stay valid.
    Counter &c_issued_;
    Counter &c_redundant_;
    Counter &c_dropped_mshr_full_;
};

/** A prefetcher that never issues anything (the no-prefetch baseline). */
class NullPrefetcher : public Prefetcher
{
  public:
    void onAccess(const L2AccessInfo &) override {}
    bool wantsAccess() const override { return false; }
    bool hasTargetRegions() const override { return false; }
    std::string name() const override { return "none"; }
};

} // namespace rnr

#endif // RNR_PREFETCH_PREFETCHER_H
