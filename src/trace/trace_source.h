/**
 * @file
 * Streaming record feed for the core model.
 *
 * CoreModel historically consumed a fully materialised TraceBuffer; a
 * multi-million-record iteration therefore had to be resident in memory
 * per core before simulation could start.  TraceSource abstracts the
 * feed so a core can equally pull records from an in-memory buffer
 * (BufferSource, System::run()) or block-by-block from compressed v2
 * bytes — a trace file (tracestore/trace_reader.h: store capture and
 * replay, tracefile cells) or an in-memory segment
 * (tracestore/trace_segment.h: store-off cells) — with only one decoded
 * block resident per core.
 *
 * The contract is single-pass: done() may be called repeatedly (and may
 * refill an internal block on the way); take() requires !done() and
 * consumes exactly one record.
 *
 * The core model (cpu/core.h) pulls whole runs instead via
 * takeBlock(): the source hands back a pointer into its own storage
 * (zero-copy for BufferSource and StreamingTraceReader) and marks that
 * run consumed.  take() and takeBlock() may be interleaved freely; both
 * drain the same underlying position.
 */
#ifndef RNR_TRACE_TRACE_SOURCE_H
#define RNR_TRACE_TRACE_SOURCE_H

#include <cstddef>
#include <vector>

#include "trace/trace_buffer.h"

namespace rnr {

/** Single-pass record stream consumed by one core. */
class TraceSource
{
  public:
    /** Run length the default takeBlock() stages at a time (128 KiB of
     *  records). */
    static constexpr std::size_t kMaxBlockRecords = kDefaultBlockRecords;

    virtual ~TraceSource() = default;

    /** True when the stream is exhausted.  May refill internally. */
    virtual bool done() = 0;

    /** Consumes and returns the next record; requires !done(). */
    virtual TraceRecord take() = 0;

    /**
     * Consumes a run of records at once: returns a pointer to @p n
     * consecutive records (valid until the next call on this source)
     * and advances past them, or nullptr with n = 0 at end of stream.
     * Overrides return views into their own storage; this fallback
     * adapts any per-record source by staging up to kMaxBlockRecords
     * into an internal buffer, so custom test sources keep working
     * under the batched kernel unchanged.
     */
    virtual const TraceRecord *
    takeBlock(std::size_t &n)
    {
        staged_.clear();
        while (staged_.size() < kMaxBlockRecords && !done())
            staged_.push_back(take());
        n = staged_.size();
        return n ? staged_.data() : nullptr;
    }

  private:
    std::vector<TraceRecord> staged_; ///< Backs the fallback takeBlock().
};

/** TraceSource over a caller-owned, fully materialised buffer. */
class BufferSource final : public TraceSource
{
  public:
    BufferSource() = default;
    explicit BufferSource(const TraceBuffer *buf) : buf_(buf) {}

    bool
    done() override
    {
        return !buf_ || pos_ >= buf_->size();
    }

    TraceRecord
    take() override
    {
        return buf_->records()[pos_++];
    }

    /** Zero-copy: the whole remaining buffer is one run. */
    const TraceRecord *
    takeBlock(std::size_t &n) override
    {
        if (done()) {
            n = 0;
            return nullptr;
        }
        const TraceRecord *run = buf_->records().data() + pos_;
        n = buf_->size() - pos_;
        pos_ = buf_->size();
        return run;
    }

  private:
    const TraceBuffer *buf_ = nullptr;
    std::size_t pos_ = 0;
};

} // namespace rnr

#endif // RNR_TRACE_TRACE_SOURCE_H
