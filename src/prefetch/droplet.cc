#include "prefetch/droplet.h"

#include <algorithm>

#include "workloads/workload.h"

namespace rnr {

DropletPrefetcher::DropletPrefetcher(unsigned distance)
    : distance_(distance),
      c_indirect_launched_(stats_.declare("indirect_launched")),
      c_indirect_filtered_(stats_.declare("indirect_filtered"))
{
}

void
DropletPrefetcher::configureFor(const Workload &wl, unsigned core)
{
    setHint(wl.dropletHint(core));
}

bool
DropletPrefetcher::inEdgeRange(Addr vaddr) const
{
    return hint_.edge_count != 0 && vaddr >= hint_.edge_base &&
           vaddr < hint_.edge_base +
                       hint_.edge_count * hint_.edge_elem_bytes;
}

void
DropletPrefetcher::launchIndirect(Addr edge_block, Tick fill_time,
                                  std::uint32_t trigger_pc)
{
    if (!hint_.target_of)
        return;
    const Addr block_base = edge_block << kBlockBits;
    const std::uint64_t first =
        (std::max(block_base, hint_.edge_base) - hint_.edge_base) /
        hint_.edge_elem_bytes;
    const std::uint64_t per_block = kBlockSize / hint_.edge_elem_bytes;
    const std::uint64_t last =
        std::min(first + per_block, hint_.edge_count);
    for (std::uint64_t e = first; e < last; ++e) {
        const Addr target = hint_.target_of(e);
        // Prefetch filter: skip vertex blocks launched recently.
        const Addr block = blockNumber(target);
        Addr &slot = filter_[block % filter_.size()];
        if (slot == block + 1) {
            ++c_indirect_filtered_;
            continue;
        }
        slot = block + 1;
        // The vertex prefetch can only launch once the edge line's data
        // is back — this is the extra indirection level the RnR paper
        // identifies as DROPLET's timeliness problem.
        issuePrefetch(target, fill_time, trigger_pc);
        ++c_indirect_launched_;
    }
}

void
DropletPrefetcher::onAccess(const L2AccessInfo &info)
{
    if (!inEdgeRange(info.vaddr))
        return;

    // Edge-stream engine: keep `distance_` edge blocks in flight ahead of
    // the demand stream, and chain the indirect vertex prefetch to each
    // edge block's arrival.
    if (next_stream_block_ <= info.block)
        next_stream_block_ = info.block + 1;
    const Addr limit = info.block + 1 + distance_;
    const Addr edge_end_block =
        blockNumber(hint_.edge_base +
                    hint_.edge_count * hint_.edge_elem_bytes - 1);
    while (next_stream_block_ < limit &&
           next_stream_block_ <= edge_end_block) {
        PrefetchIssue res =
            issuePrefetch(next_stream_block_ << kBlockBits, info.now,
                          info.pc);
        const Tick arrival = res.issued ? res.fill_time : info.now;
        launchIndirect(next_stream_block_, arrival, info.pc);
        ++next_stream_block_;
    }

    // The demanded edge block itself also produces indirect prefetches
    // (on a miss the hardware sees its refill; on a hit the line is
    // already on chip and the engine scans it directly).
    if (!info.hit)
        launchIndirect(info.block, info.now, info.pc);
}

} // namespace rnr
