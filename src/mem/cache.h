/**
 * @file
 * Set-associative cache model with timestamped fills.
 *
 * The cache is functional (it tracks exactly which blocks are resident)
 * but every line remembers the tick at which its data actually arrived
 * (fill_time).  A demand access that finds a line whose fill is still in
 * the future models a "late prefetch": the requester waits until the fill
 * tick rather than paying the full miss path.  Lines also carry prefetch
 * provenance so useful/useless prefetch statistics fall out of ordinary
 * hit/evict bookkeeping.
 */
#ifndef RNR_MEM_CACHE_H
#define RNR_MEM_CACHE_H

#include <cstdint>
#include <vector>

#include "ckpt/serde.h"
#include "mem/mshr.h"
#include "sim/attrib.h"
#include "sim/config.h"
#include "sim/stats.h"
#include "sim/trace_event.h"
#include "sim/types.h"

namespace rnr {

/** One cache line's bookkeeping state.  Its tag and valid bit live in
 *  the cache's tag array (Cache::tags_), so a lookup scans contiguous
 *  tags instead of whole lines. */
struct CacheLine {
    Tick fill_time = 0;      ///< Tick at which the data arrived.
    std::uint64_t lru = 0;   ///< Higher = more recently used.
    std::uint32_t site = 0;  ///< Attribution site id (sim/attrib.h).
    std::uint8_t rrpv = 3;   ///< SRRIP re-reference prediction value.
    bool dirty = false;
    bool prefetched = false; ///< Brought in by a prefetch...
    bool referenced = false; ///< ...and since touched by a demand access.
};
static_assert(sizeof(CacheLine) == 24,
              "a line is 24 bytes beside its 8-byte tag; the tag array "
              "replaces the line's tag and valid fields");

/** What insert() displaced, so the caller can issue writebacks. */
struct EvictResult {
    Addr block = 0;               ///< Block number of the victim.
    bool valid = false;
    bool dirty = false;
    bool prefetched_unused = false; ///< Victim was an unreferenced prefetch.
};

/**
 * Pre-declared per-access counter handles of one cache level.
 *
 * Declared once against the cache's StatGroup so the access path bumps
 * plain uint64_t cells; the string names stay visible through
 * StatGroup::get()/dump() for tests and the harness.  The MSHR-merge /
 * target-structure / prefetch-issue counters are bumped by MemorySystem,
 * which owns the cross-level protocol those events belong to.
 */
struct CacheCounters {
    explicit CacheCounters(StatGroup &g);

    // Bumped by Cache itself.
    Counter &accesses;
    Counter &hits;
    Counter &misses;
    Counter &hits_on_inflight_fill;
    Counter &prefetch_useful;
    Counter &evictions;
    Counter &writebacks;
    Counter &prefetch_evicted_unused;
    Counter &fills_demand;
    Counter &fills_prefetch;

    // Bumped by MemorySystem on this cache's behalf.
    Counter &mshr_merges;
    Counter &mshr_full_stalls;
    Counter &demand_merged_into_prefetch;
    Counter &target_accesses;
    Counter &target_merges;
    Counter &target_misses;
    Counter &prefetches_issued;
    Counter &prefetch_redundant;
    Counter &prefetch_mshr_full;
};

/** A set-associative, LRU-replacement cache level.
 *
 * The lookup/insert methods are defined inline: they run up to three
 * times per demand access (L1, L2, LLC) and are the memory system's
 * hottest leaves, so keeping them visible to MemorySystem's translation
 * unit removes a cross-TU call per probe (docs/PERF.md section 3). */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Demand lookup: updates LRU and reference bits.
     * @return the resident line, or nullptr on miss.
     */
    CacheLine *
    access(Addr block, Tick now)
    {
        ++ctr_.accesses;
        const std::size_t base = setIndex(block) * cfg_.ways;
        const Addr *tags = &tags_[base];
        for (unsigned w = 0; w < cfg_.ways; ++w) {
            if (tags[w] == block) {
                CacheLine &line = lines_[base + w];
                line.lru = ++lru_clock_;
                line.rrpv = 0; // SRRIP: proven reuse -> near re-reference
                if (line.prefetched && !line.referenced) {
                    ++ctr_.prefetch_useful;
                    if (at_)
                        at_->onUseful(line.site, block);
                }
                line.referenced = true;
                if (line.fill_time > now)
                    ++ctr_.hits_on_inflight_fill;
                ++ctr_.hits;
                return &line;
            }
        }
        ++ctr_.misses;
        if (at_)
            at_->onDemandMiss(at_core_, block);
        if (tr_)
            tr_->emit(tr_track_, TraceEventType::CacheMiss, now, block,
                      tr_level_);
        return nullptr;
    }

    /** Lookup without side effects (no LRU update). */
    const CacheLine *
    peek(Addr block) const
    {
        const std::size_t base = setIndex(block) * cfg_.ways;
        const Addr *tags = &tags_[base];
        for (unsigned w = 0; w < cfg_.ways; ++w) {
            if (tags[w] == block)
                return &lines_[base + w];
        }
        return nullptr;
    }

    /**
     * Installs @p block, evicting the set's LRU victim.
     * @param fill_time tick at which the block's data arrives.
     * @param prefetched the fill was triggered by a prefetch.
     * @param site attribution site id of the issuing prefetch (0 for
     *        demand fills; sim/attrib.h), remembered on the line.
     * @return description of the displaced victim.
     */
    EvictResult
    insert(Addr block, Tick fill_time, bool prefetched, bool dirty,
           std::uint32_t site = 0)
    {
        const std::size_t base = setIndex(block) * cfg_.ways;
        Addr *tags = &tags_[base];
        CacheLine *set = &lines_[base];

        // One pass over the set finds everything victim selection can
        // need: a resident copy, the first invalid way, the first
        // least-recently-used way, and under SRRIP the first way
        // predicted "distant" (rrpv >= 3) or, failing that, the first
        // with the largest rrpv.
        const unsigned ways = cfg_.ways;
        const bool srrip = cfg_.replacement == ReplacementPolicy::Srrip;
        unsigned invalid = ways, lru = 0, distant = ways, oldest = 0;
        std::uint64_t min_lru = ~std::uint64_t{0};
        std::uint8_t max_rrpv = 0;
        for (unsigned w = 0; w < ways; ++w) {
            const Addr tag = tags[w];
            if (tag == block) {
                // Re-insert of a resident block (e.g. prefetch raced a
                // demand fill): refresh the fill time only if it
                // arrives earlier.
                CacheLine &line = set[w];
                if (fill_time < line.fill_time)
                    line.fill_time = fill_time;
                line.dirty = line.dirty || dirty;
                return {};
            }
            if (tag == kInvalidTag) {
                if (invalid == ways)
                    invalid = w;
                continue;
            }
            const CacheLine &line = set[w];
            if (line.lru < min_lru) {
                min_lru = line.lru;
                lru = w;
            }
            if (srrip) {
                if (line.rrpv >= 3 && distant == ways)
                    distant = w;
                if (line.rrpv > max_rrpv) {
                    max_rrpv = line.rrpv;
                    oldest = w;
                }
            }
        }

        // Prefer an invalid way; otherwise the LRU line, or under SRRIP
        // the first distant line, ageing the set until one exists.
        unsigned v = invalid;
        if (v == ways && srrip) {
            v = distant;
            if (v == ways) {
                const std::uint8_t age =
                    static_cast<std::uint8_t>(3 - max_rrpv);
                for (unsigned w = 0; w < ways; ++w)
                    set[w].rrpv = static_cast<std::uint8_t>(set[w].rrpv +
                                                            age);
                v = oldest;
            }
        } else if (v == ways) {
            v = lru;
        }
        CacheLine *victim = &set[v];

        EvictResult ev;
        if (tags[v] != kInvalidTag) {
            ev.valid = true;
            ev.block = tags[v];
            ev.dirty = victim->dirty;
            ev.prefetched_unused =
                victim->prefetched && !victim->referenced;
            ++ctr_.evictions;
            if (ev.dirty)
                ++ctr_.writebacks;
            if (ev.prefetched_unused) {
                ++ctr_.prefetch_evicted_unused;
                if (at_)
                    at_->onEvictedUnused(victim->site, ev.block);
            } else if (at_ && prefetched) {
                // A prefetch displaced a line the demand stream owned
                // (demand-filled, or a prefetch that proved useful):
                // remember the victim so a re-miss charges pollution.
                at_->onPrefetchEvictsDemand(at_core_, site, ev.block);
            }
        }

        tags[v] = block;
        victim->dirty = dirty;
        victim->prefetched = prefetched;
        victim->referenced = false;
        victim->site = site;
        victim->fill_time = fill_time;
        victim->lru = ++lru_clock_;
        victim->rrpv = 2; // SRRIP insertion: "long" re-reference interval
        ++(prefetched ? ctr_.fills_prefetch : ctr_.fills_demand);
        if (tr_)
            tr_->emit(tr_track_, TraceEventType::CacheFill, fill_time,
                      block, tr_level_ + (prefetched ? 4u : 0u));
        return ev;
    }

    /** Marks a resident block dirty (store hit); no-op when absent. */
    void
    markDirty(Addr block, Tick now)
    {
        CacheLine *line = access(block, now);
        if (line)
            line->dirty = true;
    }

    /** Invalidates every line and clears the MSHR file. */
    void reset();

    /** Routes this level's miss/fill (and both MSHR files') events to
     *  @p tr's @p track; @p level tags events (0 = L1, 1 = L2, 2 = LLC).
     *  Pass tr = nullptr to detach. */
    void setTrace(TraceCollector *tr, std::uint16_t track,
                  std::uint8_t level);

    /** Routes this level's attribution events (useful hits, unused
     *  evictions, pollution-filter traffic) to @p at as @p core; null =
     *  detach.  Only L2s are attached — their counters are the ones
     *  IterStats aggregates, which is what makes attribution totals
     *  reconcile exactly (sim/attrib.h). */
    void
    setAttrib(AttribCollector *at, unsigned core)
    {
        at_ = at;
        at_core_ = core;
    }

    /** Number of valid lines (tests and occupancy probes). */
    std::size_t residentCount() const;

    const CacheConfig &config() const { return cfg_; }
    Mshr &mshr() { return mshr_; }
    /** In-flight prefetches (separate file, so prefetch lookahead is not
     *  bounded by the demand MSHRs — ChampSim's PQ plays this role). */
    Mshr &prefetchQueue() { return pq_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }
    CacheCounters &ctr() { return ctr_; }
    const CacheCounters &ctr() const { return ctr_; }

    /** Checkpoint visitor: line array, LRU clock, both MSHR files and
     *  the stat group.  Each line travels as (tag, fill_time, lru, site,
     *  rrpv, valid, dirty, prefetched, referenced), an invalid line's
     *  tag as 0.  Geometry (cfg_, set_mask_) and trace routing are
     *  configuration: the restore side rebuilds them, and a line count
     *  other than its sets x ways fails the load. */
    template <class Ar>
    void
    visitState(Ar &ar)
    {
        std::uint64_t n = lines_.size();
        ar.scalar(n);
        if constexpr (Ar::kLoading) {
            if (n != lines_.size()) {
                ar.fail("cache " + cfg_.name + " holds " +
                        std::to_string(lines_.size()) +
                        " lines, snapshot " + std::to_string(n));
                return;
            }
        }
        for (std::size_t i = 0; i < lines_.size(); ++i) {
            CacheLine &line = lines_[i];
            bool valid = tags_[i] != kInvalidTag;
            Addr tag = valid ? tags_[i] : 0;
            ar.scalar(tag);
            ar.scalar(line.fill_time);
            ar.scalar(line.lru);
            ar.scalar(line.site);
            ar.scalar(line.rrpv);
            ar.scalar(valid);
            ar.scalar(line.dirty);
            ar.scalar(line.prefetched);
            ar.scalar(line.referenced);
            if constexpr (Ar::kLoading)
                tags_[i] = valid ? tag : kInvalidTag;
        }
        ar.scalar(lru_clock_);
        mshr_.visitState(ar);
        pq_.visitState(ar);
        stats_.visitState(ar);
    }

  private:
    /** Tag of an invalid way.  Block numbers are byte addresses shifted
     *  right by kBlockBits, so none reaches it. */
    static constexpr Addr kInvalidTag = ~Addr{0};

    std::size_t setIndex(Addr block) const { return block & set_mask_; }

    CacheConfig cfg_;
    std::size_t set_mask_;
    std::vector<Addr> tags_;       ///< sets x ways, row-major.
    std::vector<CacheLine> lines_; ///< Parallel to tags_.
    std::uint64_t lru_clock_ = 0;
    Mshr mshr_;
    Mshr pq_;
    StatGroup stats_;
    CacheCounters ctr_; ///< Handles into stats_; keep declared after it.
    TraceCollector *tr_ = nullptr; ///< Null unless tracing is enabled.
    std::uint16_t tr_track_ = 0;
    std::uint8_t tr_level_ = 0;
    AttribCollector *at_ = nullptr; ///< Null unless attribution is on.
    unsigned at_core_ = 0;
};

} // namespace rnr

#endif // RNR_MEM_CACHE_H
