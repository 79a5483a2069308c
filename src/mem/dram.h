/**
 * @file
 * Single-channel DRAM model with banks, row buffers, an FCFS read queue
 * and a drain-threshold write queue, matching Table II of the paper.
 *
 * The model is timestamp-based: each bank and the data channel track the
 * tick at which they next become free.  A read's completion is the sum of
 * queueing (read-queue occupancy + bank + channel availability) and the
 * row-hit or row-miss access latency.  Writes are buffered and drained in
 * batches once the write queue crosses its high-water mark, occupying the
 * channel and delaying reads that arrive during the drain, which is how
 * the paper's record-iteration metadata writes cost ~1% IPC.
 */
#ifndef RNR_MEM_DRAM_H
#define RNR_MEM_DRAM_H

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/config.h"
#include "sim/fast_div.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace rnr {

/**
 * Pre-declared per-request counter handles of the DRAM model.
 * bytes_by_origin is indexed by ReqOrigin, replacing the per-request
 * origin-name lookup the string API forced.
 */
struct DramCounters {
    explicit DramCounters(StatGroup &g);

    Counter &reads;
    Counter &writes;
    Counter &row_hits;
    Counter &row_misses;
    Counter &read_queue_full_stalls;
    Counter &read_latency_sum;
    Counter &read_latency_max; ///< Running maximum (Counter::maxWith).
    Counter &read_rq_wait;
    Counter &read_bank_wait;
    Counter &read_channel_wait;
    Counter &write_drains;
    Counter &writes_drained;
    Counter &bytes_total;
    Counter *bytes_by_origin[4]; ///< Indexed by ReqOrigin.
};

/** Timestamp-based DDR channel + bank model. */
class Dram
{
  public:
    explicit Dram(const DramConfig &cfg);

    /**
     * Services a 64 B read issued at @p now.
     * @return the tick at which the critical word is back at the LLC edge.
     */
    Tick read(Addr addr, Tick now, ReqOrigin origin);

    /**
     * Buffers a 64 B write issued at @p now; may trigger a queue drain.
     * Writes complete asynchronously and never block the caller directly,
     * but drains occupy the channel and delay subsequent reads.
     */
    void write(Addr addr, Tick now, ReqOrigin origin);

    /** Total bytes moved on the channel for @p origin. */
    std::uint64_t bytes(ReqOrigin origin) const;

    /** Total bytes moved on the channel (reads + writes, all origins). */
    std::uint64_t totalBytes() const;

    /** Clears timing state but keeps statistics (between iterations). */
    void resetTiming();

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }
    const DramCounters &ctr() const { return ctr_; }
    std::size_t writeQueueDepth() const { return write_queue_.size(); }
    /** Reads currently occupying the read queue (telemetry probe). */
    std::size_t readQueueDepth() const { return read_inflight_.size(); }

    /**
     * Next-event cursor: the tick at which the earliest in-flight read
     * completes, or kTickMax when the read queue is empty.  Like
     * Mshr::nextFill(), this is what makes quiet periods cost nothing —
     * a caller (or test) can see in O(1) that nothing happens before
     * this tick instead of scanning queues.
     */
    Tick
    nextReadCompletion() const
    {
        return read_inflight_.empty() ? kTickMax : read_inflight_.front();
    }

  private:
    struct Bank {
        Tick next_free = 0;
        std::uint64_t open_row = ~0ull;
    };

    struct PendingWrite {
        Addr addr;
        ReqOrigin origin;
    };

    /** Where a block lives: its channel, its index into banks_, and
     *  the row of that bank holding it. */
    struct Place {
        unsigned channel;
        unsigned bank;
        std::uint64_t row;
    };

    Place placeOf(Addr addr) const;
    void drainWrites(Tick now, std::size_t target_depth);
    void countBytes(ReqOrigin origin, std::uint64_t n);
    void popCompletedReads(Tick t);

    DramConfig cfg_;
    FastDiv channel_div_; ///< Divides by channels.
    FastDiv bank_div_;    ///< Divides by banks.
    FastDiv row_div_;     ///< Divides by channels * banks * row blocks.
    std::vector<Bank> banks_;          ///< channels x banks, row-major.
    std::vector<Tick> channel_free_;   ///< One data-bus cursor per channel.
    /** Min-heap of in-flight read completion times (queue occupancy). */
    std::vector<Tick> read_inflight_;
    std::deque<PendingWrite> write_queue_;
    StatGroup stats_;
    DramCounters ctr_; ///< Handles into stats_; keep declared after it.
};

} // namespace rnr

#endif // RNR_MEM_DRAM_H
