/**
 * @file
 * IMP — Indirect Memory Prefetcher (Yu et al., MICRO'15), condensed.
 *
 * IMP targets A[B[i]] patterns in pure hardware: it first detects a
 * streaming index array B via a stride detector, then tries to learn the
 * linear map  addr(A[B[i]]) = coeff * B[i] + base  by correlating the
 * *values* loaded from B with subsequent miss addresses.  Once the pair
 * (coeff, base) is confirmed, each index load triggers a prefetch of the
 * indirect target a configurable distance ahead.
 *
 * A trace-driven simulator carries no data values, so like DROPLET this
 * model receives the index-array values through a software-registered
 * IndexSniffer — standing in for the value-capture port IMP attaches to
 * the cache fill path.  The paper's criticism still binds: prediction
 * requires the index value to be *available*, so indirect prefetches
 * launch only as far ahead as index data exists on chip, and pattern
 * confirmation takes several misses (low coverage early on).
 */
#ifndef RNR_PREFETCH_IMP_H
#define RNR_PREFETCH_IMP_H

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "prefetch/prefetcher.h"

namespace rnr {

/** Value-capture stand-in: resolves an index-array element. */
struct IndexSniffer {
    Addr index_base = 0;           ///< Start of the index array B.
    std::uint64_t index_count = 0; ///< Elements in B.
    unsigned index_elem_bytes = 4;
    /** Returns the value of B[i] (what the hardware reads off the
     *  fill).  Unset = sniffer inactive. */
    std::function<std::uint64_t(std::uint64_t)> value_of;
};

class ImpPrefetcher : public Prefetcher
{
  public:
    /**
     * @param distance how many index elements ahead to prefetch.
     * @param confirm how many (index value, miss address) pairs must
     *        fit the same linear map before prefetching starts.
     */
    explicit ImpPrefetcher(unsigned distance = 16, unsigned confirm = 3);

    void setSniffer(IndexSniffer sniffer) { sniffer_ = std::move(sniffer); }

    /** Pulls the index-value sniffer from the workload. */
    void configureFor(const Workload &wl, unsigned core) override;

    void onAccess(const L2AccessInfo &info) override;
    std::string name() const override { return "imp"; }

    bool patternConfirmed() const { return confirmed_; }
    std::int64_t coefficient() const { return coeff_; }

  private:
    bool inIndexRange(Addr vaddr) const;
    std::uint64_t indexOf(Addr vaddr) const;

    /** Remembers a fetched index line's values for pairing. */
    void captureIndexBlock(std::uint64_t first_elem);

    /** Votes a miss address against the recent index values. */
    void train(Addr miss_addr);

    IndexSniffer sniffer_;
    unsigned distance_;
    unsigned confirm_;

    /** Confirmed linear map: target = coeff * B[i] + base. */
    std::int64_t coeff_ = 0;
    std::int64_t base_ = 0;
    bool confirmed_ = false;

    /** Ring of recently captured index values. */
    std::vector<std::uint64_t> recent_values_ =
        std::vector<std::uint64_t>(32, 0);
    std::uint64_t recent_head_ = 0;

    /** Vote counts per candidate (base*16+coeff) during training. */
    std::unordered_map<std::uint64_t, unsigned> candidates_;

    Counter &c_pattern_confirmed_;
};

} // namespace rnr

#endif // RNR_PREFETCH_IMP_H
