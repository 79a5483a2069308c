/**
 * @file
 * The full memory hierarchy: per-core L1D + L2 + TLB, shared LLC + DRAM.
 *
 * Ties the cache levels together, hooks the per-core prefetcher into the
 * L2 (ChampSim attaches prefetchers the same way), and provides the
 * side-band metadata path RnR uses for its sequence/division tables
 * (uncached, straight to DRAM, as in the paper: "the metadata are not
 * stored in cache").
 */
#ifndef RNR_MEM_MEMORY_SYSTEM_H
#define RNR_MEM_MEMORY_SYSTEM_H

#include <memory>
#include <vector>

#include "mem/cache.h"
#include "mem/dram.h"
#include "mem/tlb.h"
#include "prefetch/prefetcher.h"
#include "sim/config.h"
#include "sim/types.h"

namespace rnr {

class TelemetrySampler;
class Log2Histogram;
class AttribCollector;

/** Result of a demand access, as seen by the core model. */
struct DemandResult {
    Tick done = 0;       ///< Tick at which the load's data is available.
    bool l1_hit = false;
    bool l2_hit = false;
    bool l2_miss = false; ///< True L2 miss (not an MSHR merge).
};

/** Per-core private hierarchy plus the shared backside. */
class MemorySystem
{
  public:
    explicit MemorySystem(const MachineConfig &cfg);

    /**
     * Performs a demand load/store for @p core at tick @p now.
     * Returns the completion tick plus hit/miss observations.
     */
    DemandResult demandAccess(unsigned core, Addr vaddr, bool is_write,
                              std::uint32_t pc, Tick now);

    /**
     * Prefetches @p vaddr's block into @p core's L2 (prefetcher path).
     * Counted in the issuing prefetcher's traffic, lower priority than
     * demands only in that it never blocks them.  @p site is the
     * attribution site id of the issuing decision (trigger PC or RnR
     * lane id; sim/attrib.h), carried into the prefetch queue entry
     * and the filled line.
     */
    PrefetchIssue prefetchIntoL2(unsigned core, Addr vaddr, Tick now,
                                 std::uint32_t site = 0);

    /**
     * Prefetches a spatial footprint into @p core's L2: block
     * @p base_block + i for every set bit i of @p mask, in ascending
     * order.  Exactly equivalent to one prefetchIntoL2() per block at
     * the same @p now and @p site, but the two queue purges run once
     * for the batch: `now` is fixed and every fill issued lands after
     * it, so the repeats would find nothing to drop.
     */
    FootprintIssue prefetchFootprintIntoL2(unsigned core, Addr base_block,
                                           std::uint64_t mask, Tick now,
                                           std::uint32_t site = 0);

    /**
     * RnR metadata access: @p bytes streamed starting at @p addr,
     * bypassing all caches.  Returns the completion tick of the last
     * block.  Reads are issued at 64 B granularity (sequential, so they
     * enjoy DRAM row-buffer locality); writes go through the write queue.
     */
    Tick metadataRead(Addr addr, std::uint64_t bytes, Tick now);
    void metadataWrite(Addr addr, std::uint64_t bytes, Tick now);

    /** Installs @p pf as @p core's L2 prefetcher (not owned). */
    void setPrefetcher(unsigned core, Prefetcher *pf);
    Prefetcher *prefetcher(unsigned core) { return prefetchers_[core]; }

    /** Forwards a software control record to @p core's prefetcher. */
    void control(unsigned core, const TraceRecord &rec, Tick now);

    Cache &l1d(unsigned core) { return *l1d_[core]; }
    Cache &l2(unsigned core) { return *l2_[core]; }
    Cache &llc() { return *llc_; }
    Dram &dram() { return dram_; }
    Tlb &tlb(unsigned core) { return *tlb_[core]; }
    const MachineConfig &config() const { return cfg_; }
    unsigned cores() const { return cfg_.cores; }

    /** Resets DRAM/queue timing (not cache contents) between phases. */
    void resetTiming();

    /**
     * Fans @p tr out to every cache level, both MSHR files, the DRAM
     * model and the attached prefetchers (null = detach).  Core-private
     * structures use the core's track; LLC + DRAM share the "mem" track.
     * Prefetchers installed later (setPrefetcher) inherit it.
     */
    void attachTrace(TraceCollector *tr);
    TraceCollector *trace() { return tr_; }

    /**
     * Registers this hierarchy's telemetry sources with @p tm (null =
     * detach): per-core L2 MSHR occupancy and prefetch-queue depth
     * probes, DRAM read/write-queue depth probes, and the L2 demand-
     * miss and prefetch-to-fill latency histograms.  Forwards to the
     * attached prefetchers (Prefetcher::setTelemetry); prefetchers
     * installed later (setPrefetcher) inherit it.
     */
    void attachTelemetry(TelemetrySampler *tm);
    TelemetrySampler *telemetry() { return tm_; }

    /**
     * Attaches the attribution collector (null = detach): each private
     * L2 reports useful hits / unused evictions / pollution events, the
     * prefetch-issue and late-merge hooks here report the rest, and the
     * attached prefetchers get Prefetcher::setAttrib (RnR registers its
     * Fig 11 classification).  Prefetchers installed later
     * (setPrefetcher) inherit it, mirroring trace/telemetry.
     */
    void attachAttrib(AttribCollector *at);
    AttribCollector *attrib() { return at_; }

  private:
    /** One block of prefetchIntoL2() after the L2's two queue purges:
     *  the redundant and queue-full checks, then the issue. */
    PrefetchIssue issueIntoL2(unsigned core, Cache &l2, Addr block,
                              Tick now, std::uint32_t site);

    /** Shared LLC + DRAM access; returns fill-complete tick. */
    Tick accessShared(Addr block, Tick now, ReqOrigin origin);

    /** Handles an L2 eviction: writeback + prefetcher notification. */
    void handleL2Evict(unsigned core, const EvictResult &ev, Tick now);

    /**
     * Per-core snapshot of Prefetcher::wantsAccess()/hasTargetRegions(),
     * taken at setPrefetcher(): demandAccess() consults the flags
     * instead of making the two per-access virtual calls when they are
     * declared no-ops (the batched kernel's prefetcher devirtualisation;
     * docs/PERF.md section 3).
     */
    struct PfDispatch {
        bool wants_access = false;
        bool has_targets = false;
    };

    MachineConfig cfg_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::vector<std::unique_ptr<Tlb>> tlb_;
    std::unique_ptr<Cache> llc_;
    Dram dram_;
    std::vector<Prefetcher *> prefetchers_;
    std::vector<PfDispatch> pf_dispatch_; ///< Parallel to prefetchers_.
    NullPrefetcher null_pf_;
    TraceCollector *tr_ = nullptr; ///< Null unless tracing is enabled.
    TelemetrySampler *tm_ = nullptr; ///< Null unless sampling is enabled.
    AttribCollector *at_ = nullptr; ///< Null unless attribution is on.
    /** Latency sinks, non-null only while telemetry is attached. */
    Log2Histogram *h_miss_latency_ = nullptr;
    Log2Histogram *h_pf_latency_ = nullptr;
};

} // namespace rnr

#endif // RNR_MEM_MEMORY_SYSTEM_H
