/**
 * @file
 * PC-localized stride prefetcher with confidence counters (Chen & Baer /
 * Sander et al. style).  Each static load site trains a (last address,
 * stride, confidence) entry; once confident, it runs ahead by a dynamic
 * prefetch distance.
 */
#ifndef RNR_PREFETCH_STRIDE_H
#define RNR_PREFETCH_STRIDE_H

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.h"

namespace rnr {

class StridePrefetcher : public Prefetcher
{
  public:
    explicit StridePrefetcher(unsigned table_entries = 256,
                              unsigned degree = 4);

    void onAccess(const L2AccessInfo &info) override;
    std::string name() const override { return "stride"; }

  private:
    struct Entry {
        std::uint32_t pc = 0;
        Addr last_block = 0;
        std::int64_t stride = 0;
        int confidence = 0;
        bool valid = false;
    };

    Entry &slot(std::uint32_t pc);

    std::vector<Entry> table_;
    unsigned degree_;
};

} // namespace rnr

#endif // RNR_PREFETCH_STRIDE_H
