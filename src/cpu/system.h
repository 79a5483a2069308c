/**
 * @file
 * Multi-core system driver.
 *
 * Owns the cores and the memory system, and interleaves trace execution
 * across cores in local-time order so that shared resources (LLC, DRAM)
 * observe a near-globally-ordered request stream — the same effect as
 * ChampSim's lockstep O(1)-cycle loop at a fraction of the cost.  The
 * interleave advances in fixed 8-record quanta, so it — and every
 * counter — is independent of where a trace source's blocks end: an
 * in-memory buffer and a store entry's 4096-record blocks give the
 * same results.
 */
#ifndef RNR_CPU_SYSTEM_H
#define RNR_CPU_SYSTEM_H

#include <memory>
#include <vector>

#include "cpu/core.h"
#include "mem/memory_system.h"
#include "sim/config.h"
#include "trace/trace_buffer.h"

namespace rnr {

/** Cycle/instruction accounting for one barriered iteration. */
struct IterationResult {
    Tick start = 0;           ///< Barrier time at which the iteration began.
    Tick end = 0;             ///< Max finish time across cores.
    std::uint64_t instructions = 0; ///< Summed across cores.

    Tick cycles() const { return end - start; }
};

/** The whole simulated machine. */
class System
{
  public:
    explicit System(const MachineConfig &cfg);

    MemorySystem &mem() { return mem_; }
    CoreModel &core(unsigned i) { return *cores_[i]; }
    unsigned coreCount() const { return static_cast<unsigned>(cores_.size()); }

    /**
     * Runs one SPMD iteration: every core consumes its buffer; cores are
     * interleaved by local time; a barrier closes the iteration (all
     * cores sync to the max finish time, like the paper's master/worker
     * join).  @p traces must have one entry per core (may be empty).
     */
    IterationResult run(const std::vector<const TraceBuffer *> &traces);

    /**
     * Streaming variant: every core pulls from its TraceSource (one per
     * core, caller-owned, alive for the duration of the call).  This is
     * how every runner cell is simulated, from compressed trace files
     * or in-memory segments, without materialising an iteration's
     * records per core.  (Named rather
     * than overloaded: a braced list of TraceBuffer pointers would
     * otherwise match both signatures via vector's iterator-pair
     * constructor.)
     */
    IterationResult runStreaming(const std::vector<TraceSource *> &sources);

    /** Fans @p tr out to the memory hierarchy, prefetchers and cores
     *  (null = detach).  Call after installing prefetchers, or rely on
     *  MemorySystem::setPrefetcher re-applying it to late installs. */
    void
    attachTrace(TraceCollector *tr)
    {
        mem_.attachTrace(tr);
        for (auto &c : cores_)
            c->attachTrace(tr);
    }

    /** Fans @p tm out the same way (null = detach): the hierarchy and
     *  the prefetchers register their probes, the cores drive the
     *  sampling from their stepRun() clocks. */
    void
    attachTelemetry(TelemetrySampler *tm)
    {
        mem_.attachTelemetry(tm);
        for (auto &c : cores_)
            c->attachTelemetry(tm);
    }

    /** Hands the attribution collector to the memory hierarchy (null =
     *  detach); the cores never touch it — every attribution event is
     *  observed at the L2s or the prefetchers (sim/attrib.h). */
    void attachAttrib(AttribCollector *at) { mem_.attachAttrib(at); }

  private:
    /** Shared interleaving driver; feeds were set by the run() overload. */
    IterationResult drive();

    MachineConfig cfg_;
    MemorySystem mem_;
    std::vector<std::unique_ptr<CoreModel>> cores_;
};

} // namespace rnr

#endif // RNR_CPU_SYSTEM_H
