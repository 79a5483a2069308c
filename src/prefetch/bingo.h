/**
 * @file
 * Bingo spatial data prefetcher (Bakhshalipour et al., HPCA'19),
 * condensed: footprints of 2 KB spatial regions are learned per
 * generation and stored in one history table probed with the most
 * specific of two events — PC+Address first, then PC+Offset — which is
 * Bingo's key idea.  On a trigger access to a cold region the predicted
 * footprint is prefetched wholesale.
 */
#ifndef RNR_PREFETCH_BINGO_H
#define RNR_PREFETCH_BINGO_H

#include <cstdint>

#include "prefetch/prefetcher.h"
#include "sim/flat_map.h"
#include "sim/ring.h"

namespace rnr {

class BingoPrefetcher : public Prefetcher
{
  public:
    /** @param region_blocks spatial region size in blocks (32 = 2 KB). */
    explicit BingoPrefetcher(unsigned region_blocks = 32,
                             std::size_t history_entries = 4096,
                             std::size_t active_entries = 64);

    void onAccess(const L2AccessInfo &info) override;
    std::string name() const override { return "bingo"; }

  private:
    struct Generation {
        std::uint32_t trigger_pc = 0;
        unsigned trigger_offset = 0;
        Addr trigger_block = 0;
        std::uint64_t footprint = 0;
    };

    /** Commits a finished generation's footprint into the history. */
    void commit(Addr region, const Generation &gen);
    void historyInsert(std::uint64_t key, std::uint64_t footprint);

    static std::uint64_t pcAddrKey(std::uint32_t pc, Addr block);
    static std::uint64_t pcOffsetKey(std::uint32_t pc, unsigned offset);

    unsigned region_blocks_;
    std::size_t history_cap_;
    std::size_t active_cap_;

    /** Region number -> in-flight generation being observed. */
    FlatMap<Addr, Generation> active_;
    Ring<Addr> active_order_; ///< FIFO for generation retirement.

    FlatMap<std::uint64_t, std::uint64_t> history_;
    Ring<std::uint64_t> history_order_; ///< FIFO for history replacement.
};

} // namespace rnr

#endif // RNR_PREFETCH_BINGO_H
