#include "prefetch/ghb.h"

namespace rnr {

GhbPrefetcher::GhbPrefetcher(std::size_t buffer_entries, unsigned degree)
    : buffer_(buffer_entries), degree_(degree)
{
}

void
GhbPrefetcher::onAccess(const L2AccessInfo &info)
{
    if (info.hit && !info.merged)
        return; // train on the miss stream only

    // Predict: follow the link to this block's previous occurrence and
    // prefetch the blocks recorded immediately after it.
    auto it = index_.find(info.block);
    if (it != index_.end() && buffer_[it->second].valid &&
        buffer_[it->second].block == info.block) {
        std::size_t pos = it->second;
        for (unsigned d = 1; d <= degree_; ++d) {
            const std::size_t next = (pos + d) % buffer_.size();
            if (next == head_ || !buffer_[next].valid)
                break;
            issuePrefetch(buffer_[next].block << kBlockBits, info.now,
                          info.pc);
        }
    }

    // Record this miss at the head of the circular buffer.
    Node &node = buffer_[head_];
    if (node.valid) {
        // Overwriting the oldest entry: drop its index link if it still
        // points here (otherwise a newer occurrence owns the index).
        auto old = index_.find(node.block);
        if (old != index_.end() && old->second == head_)
            index_.erase(old);
    }
    node.block = info.block;
    node.valid = true;
    index_[info.block] = head_;
    head_ = (head_ + 1) % buffer_.size();
}

} // namespace rnr
