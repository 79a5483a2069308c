#include "prefetch/stems.h"

namespace rnr {

StemsPrefetcher::StemsPrefetcher(unsigned region_blocks,
                                 std::size_t temporal_entries,
                                 unsigned replay_depth,
                                 std::size_t pattern_entries)
    : region_blocks_(region_blocks),
      replay_depth_(replay_depth),
      pattern_cap_(pattern_entries),
      temporal_(temporal_entries),
      pattern_order_(pattern_entries)
{
}

void
StemsPrefetcher::patternInsert(Addr region, std::uint64_t footprint)
{
    if (std::uint64_t *fp = patterns_.find(region)) {
        *fp |= footprint;
        return;
    }
    if (patterns_.size() >= pattern_cap_ && !pattern_order_.empty()) {
        patterns_.erase(pattern_order_.front());
        pattern_order_.pop_front();
    }
    pattern_order_.push_back(region);
    patterns_[region] = footprint;
}

void
StemsPrefetcher::onAccess(const L2AccessInfo &info)
{
    if (info.hit && !info.merged)
        return; // train on the L2 miss stream

    const Addr region = info.block / region_blocks_;
    const unsigned offset =
        static_cast<unsigned>(info.block % region_blocks_);

    if (region == open_region_) {
        // Same region: accumulate the spatial footprint, no new event.
        open_footprint_ |= std::uint64_t{1} << offset;
        return;
    }

    // Region change: commit the previous region's footprint and log a
    // new trigger event in the temporal stream.
    if (open_region_ != ~Addr{0})
        patternInsert(open_region_, open_footprint_);
    open_region_ = region;
    open_footprint_ = std::uint64_t{1} << offset;

    const std::uint64_t key =
        (static_cast<std::uint64_t>(info.pc) << 32) ^ region;

    // Predict: replay the regions that followed this trigger last time.
    const std::size_t *it = index_.find(key);
    if (it && temporal_[*it].valid && temporal_[*it].region == region) {
        const std::size_t pos = *it;
        for (unsigned d = 1; d <= replay_depth_; ++d) {
            const std::size_t next = (pos + d) % temporal_.size();
            if (next == head_ || !temporal_[next].valid)
                break;
            const Addr r = temporal_[next].region;
            const std::uint64_t *pit = patterns_.find(r);
            issueFootprint(r * region_blocks_, pit ? *pit : 1, info.now,
                           info.pc);
        }
    }

    // Log the trigger event.
    TemporalNode &node = temporal_[head_];
    if (node.valid) {
        const std::uint64_t old_key =
            (static_cast<std::uint64_t>(node.trigger_pc) << 32) ^
            node.region;
        const std::size_t *old = index_.find(old_key);
        if (old && *old == head_)
            index_.erase(old_key);
    }
    node.region = region;
    node.trigger_pc = info.pc;
    node.valid = true;
    index_[key] = head_;
    head_ = (head_ + 1) % temporal_.size();
}

} // namespace rnr
