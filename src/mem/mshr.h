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
 * kernel (docs/PERF.md) — and the O(n) compaction runs only when a fill
 * actually completes.
 *
 * find() runs twice per L2 prefetch request (with a tag peek, the
 * lookups that decide whether the request is redundant), and a spatial
 * prefetcher asks for far more blocks than the prefetch queue can take,
 * so most finds are for blocks that are not there.  A 512-bit presence filter
 * answers those without a scan: insert() sets the block's bit, purge()
 * rebuilds the bitmap from the entries it keeps, and find() scans only
 * when the bit is set.  A bit is never clear while its block is in the
 * file, so find() returns exactly what the plain scan would.
 */
#ifndef RNR_MEM_MSHR_H
#define RNR_MEM_MSHR_H

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

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

    explicit Mshr(unsigned capacity) : capacity_(capacity) {}

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
        Tick next = kTickMax;
        std::size_t kept = 0;
        filter_.fill(0);
        for (const Entry &e : entries_) {
            if (e.fill > now) {
                next = std::min(next, e.fill);
                entries_[kept++] = e;
                setBit(e.block);
            }
        }
        entries_.resize(kept);
        next_fill_ = next;
    }

    /** Returns the in-flight entry for @p block, or nullptr. */
    Entry *
    find(Addr block)
    {
        if (!mayHold(block))
            return nullptr;
        for (auto &e : entries_) {
            if (e.block == block)
                return &e;
        }
        return nullptr;
    }

    /** The presence filter's bit for @p block: the top 9 bits of its
     *  Fibonacci hash. */
    static unsigned
    filterBit(Addr block)
    {
        return static_cast<unsigned>((block * 0x9e3779b97f4a7c15ull) >>
                                     (64 - 9));
    }

    /** False when @p block is certainly not in the file; true when its
     *  filter bit is set (it may be there). */
    bool
    mayHold(Addr block) const
    {
        const unsigned b = filterBit(block);
        return (filter_[b >> 6] >> (b & 63)) & 1;
    }

    bool full() const { return entries_.size() >= capacity_; }
    std::size_t inFlight() const { return entries_.size(); }
    unsigned capacity() const { return capacity_; }

    /**
     * Earliest fill time among outstanding entries; callers stall until
     * this tick when the file is full.  Requires a non-empty file.
     */
    Tick
    earliestFill() const
    {
        assert(!entries_.empty());
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
        entries_.push_back({block, fill, prefetch, site});
        setBit(block);
        next_fill_ = std::min(next_fill_, fill);
        if (probes_.trace)
            probes_.trace->emit(track_, TraceEventType::MshrAlloc, fill,
                                block, pq_ ? 1 : 0);
    }

    void
    clear()
    {
        entries_.clear();
        filter_.fill(0);
        next_fill_ = kTickMax;
    }

  private:
    void
    setBit(Addr block)
    {
        const unsigned b = filterBit(block);
        filter_[b >> 6] |= std::uint64_t{1} << (b & 63);
    }

    unsigned capacity_;
    std::vector<Entry> entries_;
    Tick next_fill_ = kTickMax; ///< Min outstanding fill; kTickMax = none.
    /** Presence filter: its set bits are filterBit(b) over the blocks
     *  b in the file (rebuilt by every compacting purge). */
    std::array<std::uint64_t, 8> filter_{};
    Probes probes_;
    std::uint16_t track_ = 0;
    bool pq_ = false;
};

} // namespace rnr

#endif // RNR_MEM_MSHR_H
