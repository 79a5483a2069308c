/**
 * @file
 * RnR software runtime — the programmer-facing API of Table I.
 *
 * Each SPMD worker owns one RnrRuntime.  Calls translate one-to-one into
 * control records in the worker's trace (the simulated core forwards them
 * to its RnR prefetcher, modelling the special-register writes).  init()
 * also allocates the Sequence/Division Table storage in the simulated
 * address space, which is the paper's "memory spaces allocated by the
 * programmer".
 *
 * A runtime constructed with enabled=false turns every call into a no-op,
 * so workloads are written once and run unchanged under every prefetcher
 * configuration.
 */
#ifndef RNR_CORE_RNR_RUNTIME_H
#define RNR_CORE_RNR_RUNTIME_H

#include <cstdint>
#include <string>

#include "trace/tracer.h"

namespace rnr {

class RnrRuntime
{
  public:
    /**
     * @param tracer the worker's trace emitter.
     * @param space shared simulated address space (metadata allocation).
     * @param tag distinguishes this worker's metadata regions by name.
     * @param enabled false turns the whole API into no-ops.
     */
    RnrRuntime(Tracer *tracer, AddressSpace *space, std::string tag,
               bool enabled = true);

    /**
     * RnR.init(): sets the ASID, allocates metadata storage sized for
     * @p expected_struct_bytes of target data, and resets the window
     * size to the hardware default.
     */
    void init(std::uint64_t expected_struct_bytes);

    /** AddrBase.set(addr, size). */
    void addrBaseSet(Addr base, std::uint64_t size);
    /** AddrBase.enable(addr). */
    void addrEnable(Addr base);
    /** AddrBase.disable(addr). */
    void addrDisable(Addr base);
    /** WindowSize.set(size) — size in cache blocks (misses per window). */
    void windowSizeSet(std::uint32_t blocks);

    /** PrefetchState.start(): enable RnR, begin recording. */
    void start();
    /** PrefetchState.replay(): replay from the top of the sequence. */
    void replay();
    /** PrefetchState.pause(). */
    void pause();
    /** PrefetchState.resume(). */
    void resume();
    /** PrefetchState.end(): disable RnR. */
    void endState();
    /** RnR.end(): free the metadata storage. */
    void end();

    bool enabled() const { return enabled_; }
    Addr seqTableBase() const { return seq_base_; }
    Addr divTableBase() const { return div_base_; }

    /** Redirects the underlying tracer (Tracer::retarget). */
    void retarget(TraceSink *sink);

  private:
    Tracer *tracer_;
    AddressSpace *space_;
    std::string tag_;
    bool enabled_;
    Addr seq_base_ = 0;
    Addr div_base_ = 0;
};

} // namespace rnr

#endif // RNR_CORE_RNR_RUNTIME_H
