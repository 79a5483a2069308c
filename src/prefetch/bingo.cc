#include "prefetch/bingo.h"

namespace rnr {

BingoPrefetcher::BingoPrefetcher(unsigned region_blocks,
                                 std::size_t history_entries,
                                 std::size_t active_entries)
    : region_blocks_(region_blocks),
      history_cap_(history_entries),
      active_cap_(active_entries),
      active_order_(active_entries),
      history_order_(history_entries)
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
    if (std::uint64_t *fp = history_.find(key)) {
        *fp = footprint;
        return;
    }
    if (history_.size() >= history_cap_ && !history_order_.empty()) {
        history_.erase(history_order_.front());
        history_order_.pop_front();
    }
    history_order_.push_back(key);
    history_[key] = footprint;
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

    if (Generation *g = active_.find(region)) {
        g->footprint |= std::uint64_t{1} << offset;
        return;
    }

    // New generation: retire the oldest if the tracker is full.
    if (active_.size() >= active_cap_ && !active_order_.empty()) {
        const Addr old = active_order_.front();
        active_order_.pop_front();
        if (const Generation *g = active_.find(old)) {
            commit(old, *g);
            active_.erase(old);
        }
    }

    Generation gen;
    gen.trigger_pc = info.pc;
    gen.trigger_offset = offset;
    gen.trigger_block = info.block;
    gen.footprint = std::uint64_t{1} << offset;
    active_[region] = gen;
    active_order_.push_back(region);

    // Predict with the most specific event that has history.
    const std::uint64_t *fp = history_.find(pcAddrKey(info.pc, info.block));
    if (!fp)
        fp = history_.find(pcOffsetKey(info.pc, offset));
    if (!fp)
        return;

    issueFootprint(region * region_blocks_,
                   *fp & ~(std::uint64_t{1} << offset), info.now, info.pc);
}

} // namespace rnr
