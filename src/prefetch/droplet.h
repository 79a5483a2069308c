/**
 * @file
 * DROPLET-style graph prefetcher (Basak et al., HPCA'19), condensed.
 *
 * DROPLET is data-aware: a stream engine runs ahead on the edge array,
 * and when a prefetched edge cache line returns from DRAM its *contents*
 * (vertex ids) are used to launch indirect prefetches of the vertex data.
 * A trace simulator has no data values, so the workload registers an
 * indirection hint (edge index -> vertex address), standing in for the
 * hardware reading the returning line.  Crucially, vertex prefetches are
 * issued at the *fill time* of the edge line — DROPLET's documented
 * weakness (the paper: "triggered when edge data refills the DRAM read
 * queue, which is often too late"), which is what Fig 6/9 penalise it for
 * on urand.
 */
#ifndef RNR_PREFETCH_DROPLET_H
#define RNR_PREFETCH_DROPLET_H

#include <cstdint>
#include <functional>
#include <vector>

#include "prefetch/prefetcher.h"

namespace rnr {

/** Software-provided description of the edge->vertex indirection. */
struct DropletHint {
    Addr edge_base = 0;            ///< Start of this core's edge range.
    std::uint64_t edge_count = 0;  ///< Number of edge elements.
    unsigned edge_elem_bytes = 4;  ///< sizeof(edge id).
    /** Maps a global edge index to the vertex-data address it touches. */
    std::function<Addr(std::uint64_t)> target_of;
};

class DropletPrefetcher : public Prefetcher
{
  public:
    /** @param distance edge-stream run-ahead distance in blocks. */
    explicit DropletPrefetcher(unsigned distance = 4);

    void setHint(DropletHint hint) { hint_ = std::move(hint); }

    /** Pulls the edge->vertex indirection hint from the workload. */
    void configureFor(const Workload &wl, unsigned core) override;

    void onAccess(const L2AccessInfo &info) override;
    std::string name() const override { return "droplet"; }

  private:
    bool inEdgeRange(Addr vaddr) const;

    /** Prefetches vertex targets of every edge in @p edge_block. */
    void launchIndirect(Addr edge_block, Tick fill_time,
                        std::uint32_t trigger_pc);

    DropletHint hint_;
    unsigned distance_;
    Counter &c_indirect_launched_;
    Counter &c_indirect_filtered_;
    Addr next_stream_block_ = 0;  ///< Edge-stream run-ahead cursor.

    /** Prefetch filter: recently launched vertex blocks (tag = block+1,
     *  0 = empty), so one hot vertex is not re-prefetched per edge. */
    std::vector<Addr> filter_ = std::vector<Addr>(4096, 0);
};

} // namespace rnr

#endif // RNR_PREFETCH_DROPLET_H
