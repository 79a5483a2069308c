/**
 * @file
 * Shared helpers for the unit and integration tests.
 */
#ifndef RNR_TESTS_TEST_UTIL_H
#define RNR_TESTS_TEST_UTIL_H

#include <memory>
#include <string>
#include <vector>

#include "cpu/system.h"
#include "mem/memory_system.h"
#include "prefetch/factory.h"
#include "sim/config.h"
#include "trace/trace_buffer.h"
#include "tracestore/trace_reader.h"
#include "workloads/workload.h"

namespace rnr::test {

/** A small machine that keeps unit tests fast and states observable. */
inline MachineConfig
tinyMachine()
{
    MachineConfig m = MachineConfig::scaledDefault();
    m.cores = 1;
    m.l1d.size_bytes = 4 * 1024;
    m.l2.size_bytes = 8 * 1024;
    m.llc.size_bytes = 64 * 1024;
    return m;
}

/** Runs a workload for @p iterations on @p sys; returns per-iteration
 *  results. */
inline std::vector<IterationResult>
runWorkload(System &sys, Workload &wl, unsigned iterations)
{
    std::vector<IterationResult> out;
    std::vector<TraceBuffer> bufs(wl.cores());
    for (unsigned it = 0; it < iterations; ++it) {
        for (auto &b : bufs)
            b.clear();
        wl.emitIteration(it, it + 1 == iterations, bufs);
        std::vector<const TraceBuffer *> ptrs;
        for (auto &b : bufs)
            ptrs.push_back(&b);
        out.push_back(sys.run(ptrs));
    }
    return out;
}

/** Reads the trace file @p path onto the end of @p buf, draining a
 *  StreamingTraceReader block by block.  Returns why the file is bad;
 *  on a mid-stream error the blocks before it stay in @p buf. */
inline TraceIoResult
readTraceFile(const std::string &path, TraceBuffer &buf)
{
    StreamingTraceReader reader;
    if (TraceIoResult r = reader.open(path); !r)
        return r;
    std::size_t n = 0;
    while (const TraceRecord *run = reader.takeBlock(n))
        buf.write(run, n);
    return reader.error() ? reader.errorResult() : TraceIoResult::ok();
}

/** Builds per-core prefetchers of @p kind and attaches them to @p sys.
 *  The returned vector owns them. */
inline std::vector<std::unique_ptr<Prefetcher>>
attachPrefetchers(System &sys, PrefetcherKind kind,
                  const RnrPrefetcher::Options &opts = {}, Workload *wl = nullptr)
{
    std::vector<std::unique_ptr<Prefetcher>> out;
    for (unsigned c = 0; c < sys.coreCount(); ++c) {
        out.push_back(createPrefetcher(kind, opts));
        if (wl) {
            if (auto *d =
                    dynamic_cast<DropletPrefetcher *>(out.back().get()))
                d->setHint(wl->dropletHint(c));
        }
        sys.mem().setPrefetcher(c, out.back().get());
    }
    return out;
}

} // namespace rnr::test

#endif // RNR_TESTS_TEST_UTIL_H
