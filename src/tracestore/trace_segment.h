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
 * bytes end.  SegmentSource is a FramedBlockSource
 * (tracestore/trace_reader.h), so it checks every frame with the same
 * code as StreamingTraceReader (record count within a block, payload
 * inside the segment, payload decoding to exactly its records) and
 * reports a bad one through error()/errorResult(), never by reading
 * past the bytes.
 */
#ifndef RNR_TRACESTORE_TRACE_SEGMENT_H
#define RNR_TRACESTORE_TRACE_SEGMENT_H

#include <cstdint>
#include <vector>

#include "trace/trace_sink.h"
#include "tracestore/trace_reader.h"

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

/** FramedBlockSource over a segment. */
class SegmentSource final : public FramedBlockSource
{
  public:
    explicit SegmentSource(std::vector<std::uint8_t> bytes);

  private:
    bool nextFrame(Frame &f) override;
    const std::uint8_t *payload(std::uint32_t payload_bytes) override;

    std::vector<std::uint8_t> bytes_;
    std::size_t offset_ = 0; ///< Next unread byte of bytes_.
};

} // namespace rnr

#endif // RNR_TRACESTORE_TRACE_SEGMENT_H
