#include "prefetch/stream.h"

namespace rnr {

StreamPrefetcher::StreamPrefetcher(unsigned streams, unsigned distance,
                                   bool skip_target_struct)
    : streams_(streams), distance_(distance),
      skip_target_(skip_target_struct)
{
}

StreamPrefetcher::Stream *
StreamPrefetcher::findStream(Addr block)
{
    // A stream matches when the access lands just ahead of (or on) its
    // training edge — tolerate small skips from partially-filtered L1
    // traffic.
    for (auto &s : streams_) {
        if (s.valid && block >= s.last_block && block <= s.last_block + 4)
            return &s;
    }
    return nullptr;
}

StreamPrefetcher::Stream &
StreamPrefetcher::allocStream(Addr block)
{
    Stream *victim = &streams_[0];
    for (auto &s : streams_) {
        if (!s.valid) {
            victim = &s;
            break;
        }
        if (s.lru < victim->lru)
            victim = &s;
    }
    *victim = Stream{};
    victim->valid = true;
    victim->last_block = block;
    victim->cursor = block + 1;
    return *victim;
}

void
StreamPrefetcher::onAccess(const L2AccessInfo &info)
{
    if (skip_target_ && info.target_struct)
        return;

    Stream *s = findStream(info.block);
    if (!s) {
        allocStream(info.block).lru = ++lru_clock_;
        return;
    }
    s->lru = ++lru_clock_;
    if (info.block > s->last_block) {
        s->confidence = std::min(s->confidence + 1, 4);
        s->last_block = info.block;
    }
    if (s->confidence < 1)
        return;

    if (s->cursor <= info.block)
        s->cursor = info.block + 1;
    const Addr limit = info.block + 1 + distance_;
    while (s->cursor < limit) {
        PrefetchIssue res =
            issuePrefetch(s->cursor << kBlockBits, info.now, info.pc);
        if (res.mshr_full)
            break; // retry from the same cursor on a later access
        ++s->cursor;
    }
}

} // namespace rnr
