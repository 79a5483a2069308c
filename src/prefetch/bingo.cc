#include "prefetch/bingo.h"

namespace rnr {

BingoPrefetcher::BingoPrefetcher(unsigned region_blocks,
                                 std::size_t history_entries,
                                 std::size_t active_entries)
    : region_blocks_(region_blocks),
      history_cap_(history_entries),
      active_cap_(active_entries)
{
}

std::uint64_t
BingoPrefetcher::pcAddrKey(std::uint32_t pc, Addr block)
{
    return (static_cast<std::uint64_t>(pc) << 40) ^ (block << 1) ^ 1u;
}

std::uint64_t
BingoPrefetcher::pcOffsetKey(std::uint32_t pc, unsigned offset)
{
    return (static_cast<std::uint64_t>(pc) << 40) ^
           (static_cast<std::uint64_t>(offset) << 1);
}

void
BingoPrefetcher::historyInsert(std::uint64_t key, std::uint64_t footprint)
{
    auto it = history_.find(key);
    if (it == history_.end()) {
        if (history_.size() >= history_cap_ && !history_order_.empty()) {
            history_.erase(history_order_.front());
            history_order_.pop_front();
        }
        history_order_.push_back(key);
    }
    history_[key] = footprint;
}

const std::uint64_t *
BingoPrefetcher::historyFind(std::uint64_t key) const
{
    auto it = history_.find(key);
    return it == history_.end() ? nullptr : &it->second;
}

void
BingoPrefetcher::commit(Addr region, const Generation &gen)
{
    (void)region;
    historyInsert(pcAddrKey(gen.trigger_pc, gen.trigger_block),
                  gen.footprint);
    historyInsert(pcOffsetKey(gen.trigger_pc, gen.trigger_offset),
                  gen.footprint);
}

void
BingoPrefetcher::onAccess(const L2AccessInfo &info)
{
    const Addr region = info.block / region_blocks_;
    const unsigned offset =
        static_cast<unsigned>(info.block % region_blocks_);

    auto it = active_.find(region);
    if (it != active_.end()) {
        it->second.footprint |= std::uint64_t{1} << offset;
        return;
    }

    // New generation: retire the oldest if the tracker is full.
    if (active_.size() >= active_cap_ && !active_order_.empty()) {
        const Addr old = active_order_.front();
        active_order_.pop_front();
        auto oit = active_.find(old);
        if (oit != active_.end()) {
            commit(old, oit->second);
            active_.erase(oit);
        }
    }

    Generation gen;
    gen.trigger_pc = info.pc;
    gen.trigger_offset = offset;
    gen.trigger_block = info.block;
    gen.footprint = std::uint64_t{1} << offset;
    active_.emplace(region, gen);
    active_order_.push_back(region);

    // Predict with the most specific event that has history.
    const std::uint64_t *fp = historyFind(pcAddrKey(info.pc, info.block));
    if (!fp)
        fp = historyFind(pcOffsetKey(info.pc, offset));
    if (!fp)
        return;

    const Addr region_base = region * region_blocks_;
    for (unsigned b = 0; b < region_blocks_; ++b) {
        if (b == offset || !((*fp >> b) & 1))
            continue;
        issuePrefetch((region_base + b) << kBlockBits, info.now,
                      info.pc);
    }
}

} // namespace rnr
