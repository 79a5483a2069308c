/**
 * @file
 * Miss Status Holding Register file.
 *
 * Each cache owns one MSHR file.  Entries track the block number of an
 * outstanding miss and the tick at which its fill completes.  Because the
 * simulator computes a miss's completion time at issue, an MSHR entry is
 * "free" again as soon as simulated time passes its fill tick; purge()
 * drops such entries lazily.
 *
 * purge() is the hottest call in the memory system (three files are
 * purged per demand access), so the file keeps a next-event cursor: the
 * minimum outstanding fill tick.  While now < next_fill_ a purge is a
 * single compare — the "quiet cycles cost nothing" half of the batched
 * kernel (docs/PERF.md) — and entries are dropped only when a fill
 * actually completes.
 *
 * find() runs twice per L2 prefetch request (with a tag peek, the
 * lookups that decide whether the request is redundant), and a spatial
 * prefetcher asks for far more blocks than the prefetch queue can take,
 * so most finds are for blocks that are not there.  A counting presence
 * filter of 512 counters (sim/counting_filter.h) answers those without
 * a scan: insert() adds the block, purge() removes each entry it drops,
 * clear() zeroes the filter, and find() scans only when the block's
 * counter is non-zero, so it returns exactly what the plain scan would.
 *
 * The live entries are kept sorted by fill tick in a ring, so the
 * entries a purge drops are a prefix: it pops them off the front and
 * touches nothing else.  Fills mostly arrive in issue order, so
 * insert() is usually an append.  No file ever holds two entries for
 * one block (every insert follows a find() that missed), so the order
 * does not change what find() returns.
 */
#ifndef RNR_MEM_MSHR_H
#define RNR_MEM_MSHR_H

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/counting_filter.h"
#include "sim/probes.h"
#include "sim/trace_event.h"
#include "sim/types.h"

namespace rnr {

/** Fixed-capacity outstanding-miss tracker. */
class Mshr
{
  public:
    struct Entry {
        Addr block;        ///< Block number (address >> 6).
        Tick fill;         ///< Tick at which the fill arrives.
        bool prefetch;     ///< Entry was allocated by a prefetch.
        std::uint32_t site; ///< Attribution site id (sim/attrib.h).
    };

    explicit Mshr(unsigned capacity)
        : capacity_(capacity), slots_(std::bit_ceil(capacity + 1u)),
          mask_(slots_.size() - 1)
    {
    }

    /** Routes MshrAlloc events to @p p's trace on @p track;
     *  @p prefetch_file tags events from the prefetch-queue file
     *  (event arg = 1). */
    void
    attach(const Probes &p, std::uint16_t track, bool prefetch_file)
    {
        probes_ = p;
        track_ = track;
        pq_ = prefetch_file;
    }

    /** Drops entries whose fill completed at or before @p now. */
    void
    purge(Tick now)
    {
        if (now < next_fill_)
            return; // nothing can have completed yet
        // The live entries are sorted by fill, so the completed ones
        // are a prefix: pop it off the front.
        while (size_ != 0 && slots_[head_].fill <= now) {
            filter_.remove(slots_[head_].block);
            head_ = (head_ + 1) & mask_;
            --size_;
        }
        next_fill_ = size_ != 0 ? slots_[head_].fill : kTickMax;
    }

    /** Returns the in-flight entry for @p block, or nullptr. */
    Entry *
    find(Addr block)
    {
        if (!mayHold(block))
            return nullptr;
        for (std::size_t i = 0; i < size_; ++i) {
            Entry &e = slots_[(head_ + i) & mask_];
            if (e.block == block)
                return &e;
        }
        return nullptr;
    }

    /** The presence filter's counter for @p block. */
    static std::size_t filterSlot(Addr block) { return Filter::slot(block); }

    /** False when @p block is certainly not in the file; true when its
     *  filter counter is non-zero (it may be there). */
    bool mayHold(Addr block) const { return filter_.mayHold(block); }

    bool full() const { return size_ >= capacity_; }
    std::size_t inFlight() const { return size_; }
    unsigned capacity() const { return capacity_; }

    /**
     * Earliest fill time among outstanding entries; callers stall until
     * this tick when the file is full.  Requires a non-empty file.
     */
    Tick
    earliestFill() const
    {
        assert(size_ != 0);
        return next_fill_;
    }

    /**
     * The next-event cursor itself: the tick at which the earliest
     * outstanding fill lands, or kTickMax when the file is empty.
     * Unlike earliestFill() this is valid on an empty file, so batch
     * drivers can ask "when does anything change?" unconditionally.
     */
    Tick nextFill() const { return next_fill_; }

    /** Allocates an entry; the caller must have ensured capacity.
     *  @param site attribution site id of the issuing prefetch (0 for
     *  demand entries; sim/attrib.h). */
    void
    insert(Addr block, Tick fill, bool prefetch,
           std::uint32_t site = 0)
    {
        assert(!full());
        // Keep the live entries sorted by fill (after any equal fill):
        // shift the later fills back one slot.  Fills mostly arrive in
        // order, so this is usually a plain append.
        std::size_t at = (head_ + size_) & mask_;
        for (std::size_t i = size_; i != 0; --i) {
            const std::size_t prev = (at - 1) & mask_;
            if (slots_[prev].fill <= fill)
                break;
            slots_[at] = slots_[prev];
            at = prev;
        }
        slots_[at] = {block, fill, prefetch, site};
        ++size_;
        filter_.add(block);
        next_fill_ = std::min(next_fill_, fill);
        if (probes_.trace)
            probes_.trace->emit(track_, TraceEventType::MshrAlloc, fill,
                                block, pq_ ? 1 : 0);
    }

    void
    clear()
    {
        head_ = size_ = 0;
        filter_.clear();
        next_fill_ = kTickMax;
    }

  private:
    unsigned capacity_;
    /** A ring of the live entries, sorted by fill: size_ of them from
     *  slots_[head_] on (indices masked with mask_). */
    std::vector<Entry> slots_;
    std::size_t mask_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    Tick next_fill_ = kTickMax; ///< Min outstanding fill; kTickMax = none.
    using Filter = CountingFilter<9>;
    Filter filter_; ///< Presence filter over the live entries' blocks.
    Probes probes_;
    std::uint16_t track_ = 0;
    bool pq_ = false;
};

} // namespace rnr

#endif // RNR_MEM_MSHR_H
