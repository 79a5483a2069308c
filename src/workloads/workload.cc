#include "workloads/workload.h"

#include <cassert>

namespace rnr {

Workload::Workload(WorkloadOptions opts) : opts_(opts)
{
    for (unsigned c = 0; c < opts_.cores; ++c) {
        tracers_.push_back(std::make_unique<Tracer>());
        runtimes_.push_back(std::make_unique<RnrRuntime>(
            tracers_.back().get(), &space_, "core" + std::to_string(c),
            opts_.use_rnr));
    }
}

void
Workload::emitIteration(unsigned iter, bool is_last,
                        const std::vector<TraceSink *> &sinks)
{
    assert(sinks.size() == opts_.cores);
    for (unsigned c = 0; c < opts_.cores; ++c)
        tracers_[c]->retarget(sinks[c]);
    try {
        emit(iter, is_last);
    } catch (...) {
        for (auto &t : tracers_)
            t->abandon();
        throw;
    }
    // Flush the partial last blocks and detach: the sinks are the
    // caller's and may not outlive this call.
    for (auto &t : tracers_)
        t->retarget(nullptr);
}

void
Workload::emitIteration(unsigned iter, bool is_last,
                        std::vector<TraceBuffer> &bufs)
{
    bufs.resize(opts_.cores);
    std::vector<TraceSink *> sinks;
    for (unsigned c = 0; c < opts_.cores; ++c) {
        bufs[c].clear();
        bufs[c].reserve(recordsHint(c));
        sinks.push_back(&bufs[c]);
    }
    emitIteration(iter, is_last, sinks);
}

} // namespace rnr
