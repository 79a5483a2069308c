#include "workloads/workload.h"

#include <cassert>

namespace rnr {

Workload::Workload(WorkloadOptions opts)
    : opts_(opts), prev_records_(opts.cores, 0)
{
    for (unsigned c = 0; c < opts_.cores; ++c) {
        tracers_.push_back(std::make_unique<Tracer>(nullptr));
        runtimes_.push_back(std::make_unique<RnrRuntime>(
            tracers_.back().get(), &space_, "core" + std::to_string(c),
            opts_.use_rnr));
    }
}

void
Workload::retargetAll(std::vector<TraceBuffer> &bufs)
{
    assert(bufs.size() == opts_.cores);
    for (unsigned c = 0; c < opts_.cores; ++c) {
        // Sample the last iteration's size before clearing when the
        // caller passes the same buffers again (the runner does).  A
        // different buffer means the old one may already be freed, so
        // it is never read.
        if (tracers_[c]->buffer() == &bufs[c] && bufs[c].size() > 0)
            prev_records_[c] = bufs[c].size();
        bufs[c].clear();
        bufs[c].reserve(prev_records_[c]);
        tracers_[c]->retarget(&bufs[c]);
    }
}

} // namespace rnr
