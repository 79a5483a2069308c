/**
 * @file
 * In-memory encoded trace segments: how a store-off cell holds one
 * core's iteration between emitting and simulating it.
 *
 * SegmentSink appends each block a Tracer hands it as a framed v2 block
 * (encodeFramedBlock(): u32 payload_bytes | u32 record_count | payload),
 * the same bytes a v2 file's body is made of, at ~4.6 B a record instead
 * of a TraceBuffer's 32.  SegmentSource then feeds the core model from
 * those bytes, decoding one block at a time, so a store-off cell
 * simulates the same encoded records a trace-store cell does while only
 * its segments and one decoded block per core are resident.
 *
 * A segment has no header, terminator or footer: it ends where its
 * bytes end.  SegmentSource validates every frame as StreamingTraceReader
 * does (record count within a block, payload inside the segment, payload
 * decoding to exactly its records) and reports a bad one through
 * error()/errorResult(), never by reading past the bytes.
 */
#ifndef RNR_TRACESTORE_TRACE_SEGMENT_H
#define RNR_TRACESTORE_TRACE_SEGMENT_H

#include <cstdint>
#include <vector>

#include "trace/trace_sink.h"
#include "trace/trace_source.h"
#include "tracestore/trace_codec.h"

namespace rnr {

/** TraceSink that encodes its records into an in-memory segment. */
class SegmentSink final : public TraceSink
{
  public:
    void write(const TraceRecord *recs, std::size_t n) override;

    /** Hands the segment over, leaving this sink empty. */
    std::vector<std::uint8_t> release() { return std::move(bytes_); }

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Block-at-a-time TraceSource over a segment. */
class SegmentSource final : public TraceSource
{
  public:
    explicit SegmentSource(std::vector<std::uint8_t> bytes)
        : bytes_(std::move(bytes))
    {
    }

    bool done() override;
    TraceRecord take() override;

    /** Zero-copy: the rest of the decoded block is one run. */
    const TraceRecord *takeBlock(std::size_t &n) override;

    /** Set when a frame failed to decode; the stream ends there. */
    bool error() const { return error_; }

    /** Details of the failure (valid when error()). */
    const TraceIoResult &errorResult() const { return error_result_; }

  private:
    /** Decodes the next frame into block_; false at the end or on a bad
     *  frame. */
    bool refill();
    bool fail(TraceIoStatus status, std::string detail);

    std::vector<std::uint8_t> bytes_;
    std::size_t offset_ = 0; ///< Next frame in bytes_.
    std::vector<TraceRecord> block_;
    std::size_t pos_ = 0;
    bool error_ = false;
    TraceIoResult error_result_;
};

} // namespace rnr

#endif // RNR_TRACESTORE_TRACE_SEGMENT_H
