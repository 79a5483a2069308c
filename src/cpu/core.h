/**
 * @file
 * Trace-driven out-of-order core approximation.
 *
 * Models the Table II core (4-wide issue/retire, 256-entry ROB, 64-entry
 * LSQ) analytically: the ROB is a queue of (completion tick, slot count)
 * entries; issue stalls when the ROB or LSQ is full; loads overlap freely
 * inside the window (memory-level parallelism is then bounded by the L2
 * MSHR file and the DRAM queues, exactly the resources ChampSim bounds it
 * with).  Retirement is in order.
 *
 * The inner loop stages a whole trace block via TraceSource::takeBlock()
 * and executes it as a tight run — one virtual call per ~4096 records
 * instead of two per record (done() + take()), with the ROB/LSQ on
 * masked rings.  stepRun() is the one execution entry point and
 * execute() the one definition of the timing model.  This runs at tens
 * of millions of trace records per second, which is what lets the
 * benches sweep the paper's full prefetcher x input matrix.
 */
#ifndef RNR_CPU_CORE_H
#define RNR_CPU_CORE_H

#include <cstddef>
#include <cstdint>

#include "mem/memory_system.h"
#include "sim/config.h"
#include "sim/fast_div.h"
#include "sim/probes.h"
#include "sim/ring.h"
#include "sim/stats.h"
#include "trace/trace_source.h"

namespace rnr {

/** One simulated core consuming one trace. */
class CoreModel
{
  public:
    CoreModel(unsigned id, const CoreConfig &cfg, MemorySystem *ms);

    /**
     * Points the core at its record source (caller-owned, must outlive
     * the run); position resets, the clock does not.  A compressed
     * trace file or segment feeds the core block by block with one
     * decoded block resident; a BufferSource feeds it from memory.
     */
    void setSource(TraceSource *src);

    /**
     * Registers this core's milli-IPC rate series with @p p's sampler
     * and makes stepRun() offer the local clock to that sampler — the
     * cores collectively drive the whole machine's sampling, since
     * System::drive() interleaves them in local-time order.  Probes{}
     * detaches.
     */
    void attach(const Probes &p);

    /** True when the feed is exhausted (may stage the next block). */
    bool done() { return run_pos_ >= run_len_ && !refillRun(); }

    /** Current issue-stage time; the System schedules on this. */
    Tick time() const { return issue_clock_; }

    /**
     * Tick at which everything issued so far has retired; the iteration
     * "ends" for this core at finishTime() of its last record.
     */
    Tick finishTime() const;

    /**
     * Processes up to @p max_records records from the staged run
     * (refilling it from the source at block boundaries) and returns
     * how many were executed — 0 means the feed is exhausted.  One call
     * touches at most one staged run, so a driver that wants exactly N
     * records loops until its quota is consumed; System::drive() relies
     * on this to keep the multi-core interleave independent of where
     * the source's blocks end.
     */
    std::size_t stepRun(std::size_t max_records);

    /** Runs this core alone to completion (single-core tests). */
    void runToCompletion();

    std::uint64_t instructionsRetired() const { return instrs_; }
    unsigned id() const { return id_; }
    StatGroup &stats() { return stats_; }

    /**
     * Advances the local clock to at least @p t (barrier between
     * iterations: SPMD workers resume together).
     */
    void syncTo(Tick t);

  private:
    struct RobEntry {
        Tick completion = 0;
        std::uint32_t slots = 0;
    };

    /** The timing model for one record. */
    void execute(const TraceRecord &rec);

    /** Stages the source's next run; false when the feed is dry. */
    bool refillRun();

    void advanceIssue(std::uint64_t instr_count);
    void reserveRobSlots(std::uint32_t slots);
    void reserveLsqSlot();

    unsigned id_;
    CoreConfig cfg_;
    FastDiv issue_div_;  ///< Divides by cfg_.issue_width.
    FastDiv retire_div_; ///< Divides by cfg_.retire_width.
    MemorySystem *ms_;
    TraceSource *src_ = nullptr;
    Probes probes_;

    /** Staged run: a view into the source's storage,
     *  valid until the next takeBlock() on that source. */
    const TraceRecord *run_ = nullptr;
    std::size_t run_pos_ = 0;
    std::size_t run_len_ = 0;

    Tick issue_clock_ = 0;
    unsigned issued_this_cycle_ = 0;
    Tick retire_clock_ = 0;

    Ring<RobEntry> rob_;
    std::uint64_t rob_slots_ = 0;
    Ring<Tick> lsq_;

    std::uint64_t instrs_ = 0;
    Tick last_completion_ = 0;
    StatGroup stats_;
    // Per-record handles, declared once (sim/counter.h).
    Counter &c_loads_;
    Counter &c_stores_;
    Counter &c_load_cycles_;
    Counter &c_l2_demand_misses_;
    Counter &c_control_records_;
    Counter &c_rob_stall_cycles_;
    Counter &c_lsq_stall_cycles_;
};

} // namespace rnr

#endif // RNR_CPU_CORE_H
