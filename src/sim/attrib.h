/**
 * @file
 * Prefetch-quality attribution: per-site and per-region accounting of
 * where prefetches help and where they hurt, and RnR's per-window
 * replay table.
 *
 * The IterStats counters (pf_issued / pf_useful / pf_late_merged /
 * rnr_*) say *how much* a prefetcher helps; this layer says *where*.
 * Every issued prefetch carries a 32-bit **site id** — the trigger PC
 * for pattern prefetchers, or the RnR replay lane id for replayed
 * blocks — threaded from Prefetcher::issuePrefetch() through the L2
 * prefetch queue and into the cache line, so every later outcome of
 * that line (demand hit, late merge, unused eviction, pollution) can
 * be attributed back to the decision that fetched it.
 *
 * Site-id grammar:
 *   0                      no site (demand fill / unattributed)
 *   bit 31 clear           trigger PC of the issuing access
 *   bit 31 set             RnR replay lane; low bits = core id
 *
 * Pollution accounting: when a prefetch fill evicts a line the demand
 * stream owned (a non-prefetched line, or a prefetched line that was
 * referenced), the victim block is remembered in a small direct-mapped
 * recently-evicted-victim filter together with the evicting site.  A
 * demand miss that hits the filter is a **pollution event**: the
 * prefetch displaced a line the program still needed.  The filter
 * entry is consumed by the hit, so one eviction is charged at most
 * once.  The filter is per-core (private L2s) and deliberately small —
 * like its hardware inspirations it undercounts (collisions overwrite)
 * but never fabricates.
 *
 * The replay-window table is the drill-down of Fig 10 and Fig 11 from
 * per-iteration to per-Division-Table-window granularity: per window,
 * the target-structure reads, the replay prefetches issued, the last
 * N_pace, the metadata refills that arrived late and the four Fig 11
 * classes, each bumped on the line that bumps its RnR counter or
 * changes the controller's window.  Rows accumulate across replay
 * passes (iterations) and cores.
 *
 * Design constraints, matching sim/timeseries.h:
 *
 *  1. **Observation only.**  An attributed run's IterStats are
 *     bit-identical to an unattributed run's (test-enforced).
 *  2. **Free when off.**  Components hold the probe bus (sim/probes.h),
 *     whose attrib pointer is null unless attribution was requested
 *     (RNR_OBS=attrib or a caller-owned collector); disabled cost is
 *     one predictable null-pointer branch per hook (BM_DemandAccess-
 *     AttribGated in BENCH_hotpath.json).
 *  3. **Bounded when on.**  The per-site / per-region tables are
 *     capacity-capped: inserting past the cap deterministically folds
 *     the smallest entry into an "other" bucket.  Totals are kept
 *     outside the tables, so they reconcile *exactly* with the
 *     IterStats counters no matter how much the tables folded.
 *  4. **Single-writer.**  One collector belongs to one simulation.
 *
 * See docs/HARNESS.md section 11 for the full walkthrough.
 */
#ifndef RNR_SIM_ATTRIB_H
#define RNR_SIM_ATTRIB_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.h"

namespace rnr {

// ---- Site-id grammar ----

/** Bit 31 marks a site as the RnR replay lane rather than a PC. */
inline constexpr std::uint32_t kAttribRnrSiteBit = 0x8000'0000u;

/** The replay-lane site id for @p core. */
constexpr std::uint32_t
attribRnrSite(unsigned core)
{
    return kAttribRnrSiteBit | static_cast<std::uint32_t>(core);
}

/** True when @p site is a replay-lane id (vs. a trigger PC). */
constexpr bool
attribSiteIsRnr(std::uint32_t site)
{
    return (site & kAttribRnrSiteBit) != 0;
}

/** Blocks per 4 KiB region (the attribution granule). */
inline constexpr unsigned kAttribRegionShift = 12 - kBlockBits;

/** The 4 KiB region of @p block. */
constexpr Addr
attribRegion(Addr block)
{
    return block >> kAttribRegionShift;
}

// ---- Accounting records ----

/** Outcome counts for one site / one region / the whole run. */
struct AttribSiteStats {
    std::uint64_t issued = 0;         ///< Prefetches issued.
    std::uint64_t useful = 0;         ///< First demand hit on the line.
    std::uint64_t late_merged = 0;    ///< Demand merged into in-flight pf.
    std::uint64_t evicted_unused = 0; ///< Evicted before any demand hit.
    std::uint64_t pollution = 0;      ///< Demand re-miss on our victim.

    /** Activity weight used for table-fold victim selection. */
    std::uint64_t
    total() const
    {
        return issued + useful + late_merged + evicted_unused +
               pollution;
    }

    void
    fold(const AttribSiteStats &o)
    {
        issued += o.issued;
        useful += o.useful;
        late_merged += o.late_merged;
        evicted_unused += o.evicted_unused;
        pollution += o.pollution;
    }
};

/** Fig 11 taxonomy classes, as classified by the RnR replay lane. */
enum class RnrTimeliness : unsigned {
    OnTime = 0,
    Early = 1,
    Late = 2,
    OutOfWindow = 3,
};

/** One Division-Table window's replay counts. */
struct WindowDiag {
    std::uint32_t window = 0;
    std::uint64_t demands = 0;       ///< Target-structure reads observed.
    std::uint64_t issued = 0;        ///< RnR replay prefetches issued.
    std::uint64_t pace = 0;          ///< Last N_pace active in the window.
    std::uint64_t refill_stalls = 0; ///< Metadata refills that arrived late.
    std::uint64_t ontime = 0;        ///< Fig 11 classification, attributed
    std::uint64_t early = 0;         ///< to the prefetch's recorded window.
    std::uint64_t late = 0;
    std::uint64_t out_of_window = 0;

    friend bool operator==(const WindowDiag &,
                           const WindowDiag &) = default;
};

/**
 * Everything one attributed run produced, detached from the collector
 * so it can ride on ExperimentResult past the simulation's lifetime.
 */
struct AttribBlob {
    struct SiteRow {
        std::uint32_t site = 0;
        AttribSiteStats stats;
    };
    struct RegionRow {
        Addr region = 0; ///< 4 KiB region number (vaddr >> 12).
        AttribSiteStats stats;
    };

    /** Top-K sites, sorted by descending total() (ties: ascending
     *  site id).  Folded activity lands in site_other. */
    std::vector<SiteRow> sites;
    AttribSiteStats site_other;
    /** Table-entry creations (a site folded and seen again counts
     *  twice); sites.size() when the table never overflowed. */
    std::uint64_t sites_tracked = 0;

    /** Tracked 4 KiB regions, sorted by ascending region number (the
     *  heatmap's spatial order).  Folded activity in region_other. */
    std::vector<RegionRow> regions;
    AttribSiteStats region_other;
    std::uint64_t regions_tracked = 0;

    /** Exact run totals; reconcile with IterStats (summed over
     *  iterations): issued == pf_issued, useful == pf_useful,
     *  late_merged == pf_late_merged. */
    AttribSiteStats totals;

    /** Exact RnR lane totals; reconcile with rnr_* IterStats. */
    std::uint64_t rnr_ontime = 0;
    std::uint64_t rnr_early = 0;
    std::uint64_t rnr_late = 0;
    std::uint64_t rnr_out_of_window = 0;

    /** Victim-filter traffic (hits == totals.pollution). */
    std::uint64_t pollution_filter_inserts = 0;
    std::uint64_t pollution_filter_hits = 0;

    /** The replay-window rows a replay touched, by ascending window. */
    std::vector<WindowDiag> windows;
};

// ---- The collector ----

/**
 * The per-simulation attribution sink.  Owned by whoever runs the
 * simulation (the runner, `trace_tools explain`, a test); components
 * receive it on the probe bus via System::attach() — null pointer =
 * attribution off, the usual one-branch discipline.
 *
 * Hooks are placed at the *exact* source lines that bump the
 * corresponding hardware counters (Cache / MemorySystem /
 * RnrPrefetcher), which is what makes harvest().totals reconcile
 * exactly with IterStats.
 */
class AttribCollector
{
  public:
    static constexpr std::size_t kDefaultSiteTopK = 64;
    static constexpr std::size_t kDefaultRegionTopK = 128;
    /** Victim-filter entries per core (direct-mapped, power of two). */
    static constexpr std::size_t kVictimFilterEntries = 256;

    explicit AttribCollector(
        std::size_t site_top_k = kDefaultSiteTopK,
        std::size_t region_top_k = kDefaultRegionTopK);

    /** Co-located with ++prefetches_issued (MemorySystem). */
    void onIssued(std::uint32_t site, Addr block);
    /** Co-located with ++prefetch_useful (Cache::access hit path). */
    void onUseful(std::uint32_t site, Addr block);
    /** Co-located with ++demand_merged_into_prefetch (MemorySystem). */
    void onLateMerged(std::uint32_t site, Addr block);
    /** Co-located with ++prefetch_evicted_unused (Cache::insert). */
    void onEvictedUnused(std::uint32_t site, Addr block);

    /** A prefetch fill (issued by @p site) displaced a demand-owned
     *  line: remember the victim in @p core's filter. */
    void onPrefetchEvictsDemand(unsigned core, std::uint32_t site,
                                Addr victim_block);
    /** A demand miss on @p core; charges a pollution event when the
     *  block hits the victim filter (entry consumed). */
    void onDemandMiss(unsigned core, Addr block);

    /** Co-located with the four rnr_* classification bumps; the
     *  class also counts in @p window's row (the prefetch's recorded
     *  window). */
    void onRnrClass(RnrTimeliness cls, std::uint32_t window);

    // Replay-window table hooks (RnrPrefetcher, ReplayController).
    /** A target-structure read while the program is in @p window. */
    void onWindowDemand(std::uint32_t window)
    {
        ++windowRow(window).demands;
    }
    /** A replay prefetch of @p window's entries went out. */
    void onWindowIssue(std::uint32_t window)
    {
        ++windowRow(window).issued;
    }
    /** The controller opened @p window, or recomputed its N_pace. */
    void onWindowPace(std::uint32_t window, std::uint64_t pace)
    {
        windowRow(window).pace = pace;
    }
    /** A metadata refill for @p window completed after it was due. */
    void onRefillStall(std::uint32_t window)
    {
        ++windowRow(window).refill_stalls;
    }

    /** Detaches everything recorded so far into a blob. */
    AttribBlob harvest() const;

    /** Drops every table, total and filter entry (Probes::reset());
     *  the top-K caps stay. */
    void reset();

  private:
    struct VictimEnt {
        Addr block = 0;
        std::uint32_t site = 0;
        bool valid = false;
    };

    AttribSiteStats &siteRow(std::uint32_t site);
    AttribSiteStats &regionRow(Addr region);
    WindowDiag &windowRow(std::uint32_t window);
    void account(std::uint32_t site, Addr block,
                 std::uint64_t AttribSiteStats::*field);

    std::size_t site_top_k_;
    std::size_t region_top_k_;

    std::unordered_map<std::uint32_t, AttribSiteStats> sites_;
    AttribSiteStats site_other_;
    std::uint64_t sites_tracked_ = 0;

    std::unordered_map<Addr, AttribSiteStats> regions_;
    AttribSiteStats region_other_;
    std::uint64_t regions_tracked_ = 0;

    AttribSiteStats totals_;
    std::uint64_t rnr_class_[4] = {};

    /** [core][entry]; grown on first use of a core. */
    std::vector<std::vector<VictimEnt>> victims_;
    std::uint64_t filter_inserts_ = 0;
    std::uint64_t filter_hits_ = 0;

    /** Dense window table (index == window id); rows a replay never
     *  touched stay zero and harvest() skips them. */
    std::vector<WindowDiag> windows_;
};

// ---- Expositions ----

/** @p blob as an rnr-attrib-v2 JSON object (one line, no \n).  The
 *  replay-window rows are left out: explain (harness/explain.h)
 *  prints them as their own part. */
std::string attribJson(const AttribBlob &blob);

/** The replay report: the touched windows plus column totals. */
struct ReplayDiagnostics {
    std::vector<WindowDiag> windows;
    WindowDiag total; ///< Column sums (total.window/pace are meaningless).
};

/** Builds the per-window report from @p blob's window rows. */
ReplayDiagnostics buildReplayDiagnostics(const AttribBlob &blob);

} // namespace rnr

#endif // RNR_SIM_ATTRIB_H
