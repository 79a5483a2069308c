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
#include <list>
#include <unordered_map>

#include "prefetch/prefetcher.h"

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
    const std::uint64_t *historyFind(std::uint64_t key) const;

    static std::uint64_t pcAddrKey(std::uint32_t pc, Addr block);
    static std::uint64_t pcOffsetKey(std::uint32_t pc, unsigned offset);

    unsigned region_blocks_;
    std::size_t history_cap_;
    std::size_t active_cap_;

    /** Region number -> in-flight generation being observed. */
    std::unordered_map<Addr, Generation> active_;
    std::list<Addr> active_order_; ///< FIFO for generation retirement.

    std::unordered_map<std::uint64_t, std::uint64_t> history_;
    std::list<std::uint64_t> history_order_;
};

} // namespace rnr

#endif // RNR_PREFETCH_BINGO_H
