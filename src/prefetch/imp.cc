#include "prefetch/imp.h"

#include "workloads/workload.h"

namespace rnr {

ImpPrefetcher::ImpPrefetcher(unsigned distance, unsigned confirm)
    : distance_(distance), confirm_(confirm),
      c_pattern_confirmed_(stats_.declare("pattern_confirmed"))
{
}

void
ImpPrefetcher::configureFor(const Workload &wl, unsigned core)
{
    setSniffer(wl.impSniffer(core));
}

bool
ImpPrefetcher::inIndexRange(Addr vaddr) const
{
    return sniffer_.index_count != 0 && vaddr >= sniffer_.index_base &&
           vaddr < sniffer_.index_base +
                       sniffer_.index_count * sniffer_.index_elem_bytes;
}

std::uint64_t
ImpPrefetcher::indexOf(Addr vaddr) const
{
    return (vaddr - sniffer_.index_base) / sniffer_.index_elem_bytes;
}

void
ImpPrefetcher::captureIndexBlock(std::uint64_t first_elem)
{
    // The fill of an index-array line exposes a whole line of values to
    // the value-capture port; remember them for pairing with misses.
    const std::uint64_t per_block =
        kBlockSize / sniffer_.index_elem_bytes;
    const std::uint64_t last =
        std::min(first_elem + per_block, sniffer_.index_count);
    for (std::uint64_t i = first_elem; i < last; ++i) {
        recent_values_[recent_head_ % recent_values_.size()] =
            sniffer_.value_of(i);
        ++recent_head_;
    }
}

void
ImpPrefetcher::train(Addr miss_addr)
{
    if (confirmed_)
        return;
    // Each miss votes for every (coeff, base) consistent with a recent
    // index value; the true linear map gets one vote per indirect miss,
    // while spurious combinations scatter.  IMP's hardware does this
    // with a few candidate registers; a bounded map models it.
    const std::uint64_t live =
        std::min<std::uint64_t>(recent_head_, recent_values_.size());
    for (std::uint64_t k = 0; k < live; ++k) {
        const std::uint64_t v = recent_values_[k];
        for (std::int64_t c : {8, 4, 2}) {
            const std::int64_t b =
                static_cast<std::int64_t>(miss_addr) -
                c * static_cast<std::int64_t>(v);
            if (b < 0)
                continue;
            const std::uint64_t key =
                static_cast<std::uint64_t>(b) * 16 +
                static_cast<std::uint64_t>(c);
            const unsigned votes = ++candidates_[key];
            if (votes >= confirm_ * 4) {
                // Each true miss contributes ~1 vote via its own value
                // and c; spurious pairs rarely repeat.  The 4x margin
                // keeps false maps out.
                coeff_ = c;
                base_ = b;
                confirmed_ = true;
                ++c_pattern_confirmed_;
                return;
            }
        }
    }
    if (candidates_.size() > 65536)
        candidates_.clear();
}

void
ImpPrefetcher::onAccess(const L2AccessInfo &info)
{
    if (inIndexRange(info.vaddr)) {
        const std::uint64_t elem = indexOf(info.vaddr);
        if (sniffer_.value_of) {
            captureIndexBlock(elem & ~(kBlockSize /
                                           sniffer_.index_elem_bytes -
                                       1));
            if (confirmed_) {
                // Prefetch targets of the elements `distance_` ahead;
                // their values arrive with this line's neighbours, the
                // hardware reads them off the fill.
                const std::uint64_t per_block =
                    kBlockSize / sniffer_.index_elem_bytes;
                for (std::uint64_t i = 0; i < per_block; ++i) {
                    const std::uint64_t ahead = elem + distance_ + i;
                    if (ahead >= sniffer_.index_count)
                        break;
                    const std::int64_t target =
                        coeff_ * static_cast<std::int64_t>(
                                     sniffer_.value_of(ahead)) +
                        base_;
                    if (target > 0)
                        issuePrefetch(static_cast<Addr>(target),
                                      info.now, info.pc);
                }
            }
        }
        return;
    }

    // Misses outside the index array are candidate indirect accesses.
    if (!info.hit && !info.merged)
        train(info.vaddr);
}

} // namespace rnr
