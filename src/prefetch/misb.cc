#include "prefetch/misb.h"

#include "mem/memory_system.h"

namespace rnr {

MisbPrefetcher::MisbPrefetcher(unsigned degree,
                               std::size_t metadata_cache_entries)
    : degree_(degree), metadata_cap_(metadata_cache_entries),
      c_metadata_cache_hits_(stats_.declare("metadata_cache_hits")),
      c_metadata_cache_misses_(stats_.declare("metadata_cache_misses"))
{
}

void
MisbPrefetcher::touchMetadata(std::uint64_t key, Tick now)
{
    // Mapping entries are packed 8 to a 64 B metadata line.
    const std::uint64_t line = key >> 3;
    auto it = meta_cache_.find(line);
    if (it != meta_cache_.end()) {
        meta_lru_.splice(meta_lru_.end(), meta_lru_, it->second);
        ++c_metadata_cache_hits_;
        return;
    }
    ++c_metadata_cache_misses_;
    // Off-chip metadata access: one line read, and a dirty line written
    // back half the time (training constantly updates mappings).
    ms_->metadataRead(metadata_base_ + line * kBlockSize, kBlockSize, now);
    if ((line & 1) == 0)
        ms_->metadataWrite(metadata_base_ + line * kBlockSize, kBlockSize,
                           now);
    if (meta_cache_.size() >= metadata_cap_) {
        meta_cache_.erase(meta_lru_.front());
        meta_lru_.pop_front();
    }
    meta_lru_.push_back(line);
    meta_cache_[line] = std::prev(meta_lru_.end());
}

void
MisbPrefetcher::onAccess(const L2AccessInfo &info)
{
    if (info.hit && !info.merged)
        return; // temporal prefetchers train on the miss stream

    touchMetadata(info.block, info.now);

    // --- Predict: structural neighbours of this block ---
    auto ps = ps_map_.find(info.block);
    if (ps != ps_map_.end()) {
        const std::uint64_t s = ps->second;
        for (unsigned d = 1; d <= degree_; ++d) {
            auto sp = sp_map_.find(s + d);
            if (sp == sp_map_.end())
                break;
            touchMetadata(s + d, info.now);
            issuePrefetch(sp->second << kBlockBits, info.now, info.pc);
        }
    }

    // --- Train: append this block to its PC's structural stream ---
    auto tu = training_.find(info.pc);
    if (tu != training_.end()) {
        const Addr prev = tu->second;
        auto prev_ps = ps_map_.find(prev);
        std::uint64_t prev_s;
        if (prev_ps == ps_map_.end()) {
            // Allocate a fresh stream for the predecessor.
            auto alloc = stream_alloc_.find(info.pc);
            if (alloc == stream_alloc_.end()) {
                stream_alloc_[info.pc] = next_stream_base_;
                next_stream_base_ += kStreamStride;
                alloc = stream_alloc_.find(info.pc);
            }
            prev_s = alloc->second;
            alloc->second += 2; // leave room to grow the stream
            ps_map_[prev] = prev_s;
            sp_map_[prev_s] = prev;
        } else {
            prev_s = prev_ps->second;
        }
        // Give the current block the next structural slot unless it
        // already belongs to a stream (first mapping wins, as in ISB).
        if (!ps_map_.contains(info.block)) {
            const std::uint64_t s = prev_s + 1;
            if (!sp_map_.contains(s)) {
                ps_map_[info.block] = s;
                sp_map_[s] = info.block;
            }
        }
    }
    training_[info.pc] = info.block;
}

} // namespace rnr
