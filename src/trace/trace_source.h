/**
 * @file
 * Record feed for the core model.
 *
 * A core pulls its records from a TraceSource: an in-memory buffer
 * (BufferSource, System::run() and tests) or, on every runner cell,
 * compressed v2 blocks decoded one at a time by FramedBlockSource
 * (tracestore/trace_reader.h) from a trace file or from a store-off
 * cell's in-memory segment (tracestore/trace_segment.h).  Only one
 * decoded block is resident per core.
 *
 * The core model (cpu/core.h) pulls whole runs via takeBlock(): the
 * source hands back a pointer into its own storage and marks that run
 * consumed.  The contract is single-pass.
 *
 * done() and take() consume one record at a time.  Nothing in the
 * simulator calls them; they remain for callers outside it that wrap
 * a source record by record.
 */
#ifndef RNR_TRACE_TRACE_SOURCE_H
#define RNR_TRACE_TRACE_SOURCE_H

#include <cstddef>

#include "trace/trace_buffer.h"

namespace rnr {

/** Single-pass record stream consumed by one core. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** True when the stream is exhausted.  May refill internally. */
    virtual bool done() = 0;

    /** Consumes and returns the next record; requires !done(). */
    virtual TraceRecord take() = 0;

    /**
     * Consumes a run of records at once: returns a pointer to @p n
     * consecutive records (valid until the next call on this source)
     * and advances past them, or nullptr with n = 0 at end of stream.
     * take() and takeBlock() may be interleaved; both drain the same
     * position.
     */
    virtual const TraceRecord *takeBlock(std::size_t &n) = 0;
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
