/**
 * @file
 * Common interface of the traced SPMD workloads.
 *
 * A workload owns the input data, the simulated address-space layout, a
 * per-core Tracer and a per-core RnrRuntime.  emitIteration() runs one
 * algorithm iteration natively (producing real numerical results) while
 * emitting the memory trace each core's slice generates into that core's
 * TraceSink, a block at a time, including the RnR API calls at the
 * positions Algorithm 1 places them:
 *
 *   iteration 0:        init / AddrBase.set / enable / start  -> Record
 *   iterations 1..n-1:  replay (+ base swap where applicable) -> Replay
 *   last iteration end: PrefetchState.end / RnR.end           -> Idle
 */
#ifndef RNR_WORKLOADS_WORKLOAD_H
#define RNR_WORKLOADS_WORKLOAD_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rnr_runtime.h"
#include "prefetch/droplet.h"
#include "prefetch/imp.h"
#include "trace/trace_buffer.h"
#include "trace/tracer.h"

namespace rnr {

/** Configuration shared by every workload. */
struct WorkloadOptions {
    unsigned cores = 4;
    /** Emit the RnR API calls (false = plain trace for baselines that
     *  must not see control records; the records are harmless to other
     *  prefetchers, so the default is to emit them). */
    bool use_rnr = true;
    /** Nonzero overrides the hardware-default window size (Fig 14). */
    std::uint32_t window_size = 0;
};

/** Base class wiring tracers, runtimes and the address space. */
class Workload
{
  public:
    explicit Workload(WorkloadOptions opts);
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /**
     * Emits the trace of iteration @p iter, core c's records into
     * @p sinks[c], running the real computation as a side effect.  Each
     * core's tracer hands its sink full kDefaultBlockRecords blocks as
     * they fill and the partial last one before this returns, so nothing
     * here holds more than one block per core.
     * @param is_last emit the RnR teardown calls at the iteration end.
     */
    void emitIteration(unsigned iter, bool is_last,
                       const std::vector<TraceSink *> &sinks);

    /** emitIteration() drained into one whole buffer per core; @p bufs
     *  is resized to cores() and cleared first (capacity is kept, so
     *  reusing the buffers across iterations does not regrow them),
     *  then reserved to recordsHint(). */
    void emitIteration(unsigned iter, bool is_last,
                       std::vector<TraceBuffer> &bufs);

    /** Records core @p core emits per iteration when the workload knows
     *  it before emitting (0 = unknown). */
    virtual std::size_t
    recordsHint(unsigned core) const
    {
        (void)core;
        return 0;
    }

    /** Bytes of all input arrays (off-chip traffic / Fig 13 basis). */
    virtual std::uint64_t inputBytes() const = 0;

    /** Bytes of the irregularly-accessed target structure(s). */
    virtual std::uint64_t targetBytes() const = 0;

    /**
     * Prepares workload-held simulation state for replaying iteration
     * @p iter from a stored trace *without* running emitIteration().
     *
     * Most workloads need nothing: their dropletHint()/impSniffer()
     * closures read only static structure (edges, column indices).
     * PageRank is the exception — its hint chases the p_curr base that
     * emitIteration() swaps every iteration — so it overrides this.
     * The trace-store replay path calls it before each iteration.
     */
    virtual void
    beginReplayIteration(unsigned iter)
    {
        (void)iter;
    }

    /** Edge->vertex indirection for DROPLET; empty when inapplicable. */
    virtual DropletHint dropletHint(unsigned core) const
    {
        (void)core;
        return {};
    }

    /** Index-array value capture for IMP; empty when inapplicable. */
    virtual IndexSniffer impSniffer(unsigned core) const
    {
        (void)core;
        return {};
    }

    unsigned cores() const { return opts_.cores; }
    AddressSpace &space() { return space_; }
    const WorkloadOptions &options() const { return opts_; }

  protected:
    /** The workload's iteration: emits core c's records through
     *  tracers_[c] (and runtimes_[c]), which emitIteration() has pointed
     *  at the caller's sinks. */
    virtual void emit(unsigned iter, bool is_last) = 0;

    WorkloadOptions opts_;
    AddressSpace space_;
    std::vector<std::unique_ptr<Tracer>> tracers_;
    std::vector<std::unique_ptr<RnrRuntime>> runtimes_;
};

} // namespace rnr

#endif // RNR_WORKLOADS_WORKLOAD_H
