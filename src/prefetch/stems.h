/**
 * @file
 * Spatio-Temporal Memory Streaming (Somogyi et al., ISCA'09), condensed.
 *
 * STeMS records the *temporal* order of spatial-region trigger events and
 * the *spatial* footprint observed inside each region, then reconstructs
 * a total order at prediction time: when a trigger event repeats, it
 * replays the next few region triggers from the temporal log and expands
 * each into its stored footprint.  As the paper notes (Section II), order
 * *within* a region is not recorded, and patterns repeating within the
 * same region across temporal phases are invisible to it — which is why
 * it struggles on the RnR workloads.
 */
#ifndef RNR_PREFETCH_STEMS_H
#define RNR_PREFETCH_STEMS_H

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "prefetch/prefetcher.h"

namespace rnr {

class StemsPrefetcher : public Prefetcher
{
  public:
    explicit StemsPrefetcher(unsigned region_blocks = 32,
                             std::size_t temporal_entries = 8192,
                             unsigned replay_depth = 4,
                             std::size_t pattern_entries = 4096);

    void onAccess(const L2AccessInfo &info) override;
    std::string name() const override { return "stems"; }

  private:
    struct TemporalNode {
        Addr region = 0;
        std::uint32_t trigger_pc = 0;
        bool valid = false;
    };

    void patternInsert(Addr region, std::uint64_t footprint);
    void prefetchRegion(Addr region, std::uint64_t footprint, Tick now,
                        std::uint32_t trigger_pc);

    unsigned region_blocks_;
    unsigned replay_depth_;
    std::size_t pattern_cap_;

    /** Temporal log of region-trigger events (GHB over regions). */
    std::vector<TemporalNode> temporal_;
    std::size_t head_ = 0;
    /** (pc, region) trigger -> last temporal log position. */
    std::unordered_map<std::uint64_t, std::size_t> index_;

    /** Region -> last committed spatial footprint (SMS-like PST). */
    std::unordered_map<Addr, std::uint64_t> patterns_;
    std::list<Addr> pattern_order_;

    /** Region currently being observed and its accumulating footprint. */
    Addr open_region_ = ~Addr{0};
    std::uint64_t open_footprint_ = 0;
};

} // namespace rnr

#endif // RNR_PREFETCH_STEMS_H
