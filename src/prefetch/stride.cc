#include "prefetch/stride.h"

namespace rnr {

StridePrefetcher::StridePrefetcher(unsigned table_entries, unsigned degree)
    : table_(table_entries), degree_(degree)
{
}

StridePrefetcher::Entry &
StridePrefetcher::slot(std::uint32_t pc)
{
    Entry &e = table_[pc % table_.size()];
    if (!e.valid || e.pc != pc) {
        e = Entry{};
        e.pc = pc;
        e.valid = true;
    }
    return e;
}

void
StridePrefetcher::onAccess(const L2AccessInfo &info)
{
    Entry &e = slot(info.pc);
    if (e.last_block != 0) {
        const std::int64_t stride =
            static_cast<std::int64_t>(info.block) -
            static_cast<std::int64_t>(e.last_block);
        if (stride != 0) {
            if (stride == e.stride) {
                e.confidence = std::min(e.confidence + 1, 4);
            } else {
                e.stride = stride;
                e.confidence = 1;
            }
            if (e.confidence >= 2) {
                for (unsigned d = 1; d <= degree_; ++d) {
                    const std::int64_t target =
                        static_cast<std::int64_t>(info.block) +
                        e.stride * static_cast<std::int64_t>(d);
                    if (target > 0)
                        issuePrefetch(static_cast<Addr>(target)
                                          << kBlockBits,
                                      info.now, info.pc);
                }
            }
        }
    }
    e.last_block = info.block;
}

} // namespace rnr
