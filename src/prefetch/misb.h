/**
 * @file
 * MISB — Managed Irregular Stream Buffer (Wu et al., ISCA'19), condensed.
 *
 * MISB is an ISB-style temporal prefetcher: PC-localized miss streams are
 * linearised into a *structural* address space so that temporally
 * correlated physical blocks become sequential structural addresses.
 * Prediction is then trivial (structural +1..+degree) and the two mapping
 * tables (physical->structural, structural->physical) live off-chip,
 * cached on-chip and prefetched.  We model the mappings functionally and
 * charge DRAM metadata traffic whenever the on-chip metadata cache
 * misses, which reproduces MISB's metadata-traffic behaviour in Fig 12.
 */
#ifndef RNR_PREFETCH_MISB_H
#define RNR_PREFETCH_MISB_H

#include <cstdint>

#include "prefetch/prefetcher.h"
#include "sim/flat_map.h"
#include "sim/lru_list.h"

namespace rnr {

class MisbPrefetcher : public Prefetcher
{
  public:
    /**
     * @param degree maximum prefetch lookahead (paper: 8).
     * @param metadata_cache_entries on-chip cached mapping lines; the
     *        real MISB spends 49 KB, we scale with the cache scaling.
     */
    explicit MisbPrefetcher(unsigned degree = 8,
                            std::size_t metadata_cache_entries = 2048);

    void onAccess(const L2AccessInfo &info) override;
    std::string name() const override { return "misb"; }

  private:
    static constexpr std::uint64_t kStreamStride = 1u << 20;

    /** Charges metadata traffic when @p key misses the on-chip cache. */
    void touchMetadata(std::uint64_t key, Tick now);

    unsigned degree_;
    std::size_t metadata_cap_;
    Counter &c_metadata_cache_hits_;
    Counter &c_metadata_cache_misses_;

    /** Training unit: last missed block per PC. */
    FlatMap<std::uint32_t, Addr> training_;
    /** Physical block -> structural address. */
    FlatMap<Addr, std::uint64_t> ps_map_;
    /** Structural address -> physical block. */
    FlatMap<std::uint64_t, Addr> sp_map_;
    /** Next free structural stream base, per PC. */
    FlatMap<std::uint32_t, std::uint64_t> stream_alloc_;
    std::uint64_t next_stream_base_ = 0;

    /** On-chip metadata cache: mapping-line id -> its meta_lru_ node. */
    FlatMap<std::uint64_t, LruList::Index> meta_cache_;
    LruList meta_lru_;

    /** Simulated VA where off-chip metadata lives (traffic addresses). */
    Addr metadata_base_ = 0x7f0000000000ull;
};

} // namespace rnr

#endif // RNR_PREFETCH_MISB_H
