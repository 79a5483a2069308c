#include "prefetch/prefetcher.h"

#include "mem/memory_system.h"

namespace rnr {

Prefetcher::Prefetcher()
    : c_issued_(stats_.declare("issued")),
      c_redundant_(stats_.declare("redundant")),
      c_dropped_mshr_full_(stats_.declare("dropped_mshr_full"))
{
}

void
Prefetcher::attach(MemorySystem *ms, unsigned core)
{
    ms_ = ms;
    core_ = core;
    // Rename in place: counters declared by constructors (base and
    // derived) keep their handles and their accumulated values.
    stats_.rename(name() + "." + std::to_string(core));
}

PrefetchIssue
Prefetcher::issuePrefetch(Addr vaddr, Tick now, std::uint32_t site)
{
    PrefetchIssue out = ms_->prefetchIntoL2(core_, vaddr, now, site);
    if (out.issued)
        ++c_issued_;
    else if (out.redundant)
        ++c_redundant_;
    else if (out.mshr_full)
        ++c_dropped_mshr_full_;
    return out;
}

FootprintIssue
Prefetcher::issueFootprint(Addr base_block, std::uint64_t mask, Tick now,
                           std::uint32_t site)
{
    const FootprintIssue out =
        ms_->prefetchFootprintIntoL2(core_, base_block, mask, now, site);
    c_issued_ += out.issued;
    c_redundant_ += out.redundant;
    c_dropped_mshr_full_ += out.mshr_full;
    return out;
}

} // namespace rnr
