/**
 * @file
 * The framed-block decoder, and the streaming trace-file reader built
 * on it.
 *
 * FramedBlockSource is the one decoder of framed v2 blocks
 * (tracestore/trace_codec.h): it checks each frame's record count and
 * payload bound, decodes the payload and hands the core model the
 * decoded block, one block resident.  Two sources feed it frames:
 * StreamingTraceReader (below) from a trace file, and SegmentSource
 * (tracestore/trace_segment.h) from a store-off cell's in-memory
 * segment.  Each bounds a payload by what its own container has left.
 *
 * Every file-backed cell feeds each simulated core straight from disk
 * through a StreamingTraceReader: trace-store replay, a capture (which
 * reads back the files it has just written), and the tracefile app
 * (which wraps a reader between its injected RnR control records, see
 * workloads/trace_replay.h).  A multi-million-record iteration
 * therefore never has to be resident in memory (a TraceBuffer needs
 * 32 bytes per record per core).  Peak memory per open reader is one
 * decoded block (block_records x 32 B, 128 KiB at the default) plus
 * the undecoded payload buffer.
 *
 * Errors surface two ways: open() returns the TraceIoResult, and a
 * corrupt frame discovered mid-stream flips error().  The simulation
 * that consumed the earlier blocks is already tainted, so the runner
 * throws it away: a store entry is quarantined and recaptured, a
 * capture is aborted and the cell rerun without the store, a tracefile
 * cell fails with an error naming the file.
 */
#ifndef RNR_TRACESTORE_TRACE_READER_H
#define RNR_TRACESTORE_TRACE_READER_H

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "trace/trace_source.h"
#include "tracestore/trace_codec.h"

namespace rnr {

/**
 * Block-at-a-time TraceSource over a sequence of framed blocks.  A
 * subclass supplies the frames (nextFrame(), payload()); this base
 * checks and decodes them.
 */
class FramedBlockSource : public TraceSource
{
  public:
    bool done() override;
    TraceRecord take() override;

    /** Zero-copy: the rest of the decoded block is one run. */
    const TraceRecord *takeBlock(std::size_t &n) override;

    /** Set when a frame failed to decode mid-stream (see file docs). */
    bool error() const { return error_; }

    /** Details of the mid-stream failure (valid when error()). */
    const TraceIoResult &errorResult() const { return error_result_; }

    /** Records handed out so far (diagnostics). */
    std::uint64_t recordsDelivered() const { return delivered_; }

  protected:
    /** A frame header and the bytes its container holds after it. */
    struct Frame {
        std::uint32_t payload_bytes = 0;
        std::uint32_t record_count = 0;
        std::uint64_t bytes_left = 0;
    };

    /** @p container names the bytes a payload must fit in ("file",
     *  "segment"); @p max_records bounds a frame's record count. */
    FramedBlockSource(const char *container, std::uint32_t max_records)
        : max_records_(max_records), container_(container)
    {
    }

    /** Reads the next frame header into @p f; false at a clean end of
     *  stream or after fail(). */
    virtual bool nextFrame(Frame &f) = 0;

    /** The current frame's @p payload_bytes, which fit in its
     *  bytes_left; nullptr when they cannot be read. */
    virtual const std::uint8_t *payload(std::uint32_t payload_bytes) = 0;

    /** Ends the stream with @p status; error details start with
     *  where_.  Returns false. */
    bool fail(TraceIoStatus status, std::string detail);

    std::string where_;          ///< Prefix of error details.
    std::uint32_t max_records_;  ///< Most records a frame may hold.

  private:
    /** Checks and decodes the next frame into block_; false at the end
     *  or on a bad frame. */
    bool refill();

    const char *container_;
    std::vector<TraceRecord> block_;
    std::size_t pos_ = 0;
    std::uint64_t delivered_ = 0;
    bool exhausted_ = false;
    bool error_ = false;
    TraceIoResult error_result_;
};

/** FramedBlockSource over a v2 trace file. */
class StreamingTraceReader final : public FramedBlockSource
{
  public:
    StreamingTraceReader() : FramedBlockSource("file", kDefaultBlockRecords)
    {
    }

    /** Opens @p path and positions at the first record. */
    TraceIoResult open(const std::string &path);

  private:
    bool nextFrame(Frame &f) override;
    const std::uint8_t *payload(std::uint32_t payload_bytes) override;

    std::ifstream in_;
    std::uint64_t file_bytes_ = 0;
    std::vector<std::uint8_t> payload_;
};

} // namespace rnr

#endif // RNR_TRACESTORE_TRACE_READER_H
