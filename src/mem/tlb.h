/**
 * @file
 * Two-level data TLB model (per-core L1 DTLB + STLB).
 *
 * The simulator uses an identity virtual-to-physical mapping, so the TLB
 * only contributes latency: a DTLB hit is free, an STLB hit adds the STLB
 * latency, and a full miss adds a fixed page-walk penalty.  RnR's metadata
 * engine performs its own translations (one per metadata page) and does
 * not go through this model, matching the paper's dedicated page-address
 * registers.
 */
#ifndef RNR_MEM_TLB_H
#define RNR_MEM_TLB_H

#include <vector>

#include "sim/config.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace rnr {

/** Direct-mapped two-level TLB; returns added translation latency. */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &cfg);

    /**
     * Translates the page of @p vaddr; returns extra latency in ticks.
     * Defined inline — this runs once per demand access, and the
     * power-of-two level sizes index with a mask instead of the modulo
     * division the generic path needs (same index either way).
     */
    Tick
    translate(Addr vaddr)
    {
        const Addr page = pageNumber(vaddr);
        const Addr tag = page + 1;

        Addr &d = dtlb_[indexOf(page, dtlb_mask_, dtlb_.size())];
        if (d == tag) {
            ++c_dtlb_hits_;
            return 0;
        }

        Addr &s = stlb_[indexOf(page, stlb_mask_, stlb_.size())];
        if (s == tag) {
            ++c_stlb_hits_;
            d = tag;
            return cfg_.stlb_latency;
        }

        ++c_walks_;
        d = tag;
        s = tag;
        return cfg_.walk_latency;
    }

    /** Drops all cached translations. */
    void flush();

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    /** @p mask is size-1 for power-of-two arrays, 0 otherwise. */
    static std::size_t
    indexOf(Addr page, std::size_t mask, std::size_t size)
    {
        return mask ? (page & mask) : (page % size);
    }

    TlbConfig cfg_;
    /** Tag arrays store page_number+1 so 0 means empty. */
    std::vector<Addr> dtlb_;
    std::vector<Addr> stlb_;
    std::size_t dtlb_mask_; ///< entries-1 when a power of two, else 0.
    std::size_t stlb_mask_;
    StatGroup stats_;
    // Per-translation handles, declared once (sim/counter.h).
    Counter &c_dtlb_hits_;
    Counter &c_stlb_hits_;
    Counter &c_walks_;
};

} // namespace rnr

#endif // RNR_MEM_TLB_H
