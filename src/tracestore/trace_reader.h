/**
 * @file
 * Streaming trace-file reader: a TraceSource over a v1 or v2 file.
 *
 * Every file-backed cell feeds each simulated core straight from disk,
 * block-by-block: trace-store replay, a capture (which reads back the
 * files it has just written), and the tracefile app (which wraps a
 * reader between its injected RnR control records, see
 * workloads/trace_replay.h).  A multi-million-record iteration
 * therefore never has to be resident in memory (a TraceBuffer needs
 * 32 bytes per record per core).  Peak memory per open reader is one
 * decoded block (block_records x 32 B, 128 KiB at the default) plus
 * the undecoded payload buffer.
 *
 * v2 files stream natively (each block self-describes); v1 files are
 * chunked into kDefaultBlockRecords-sized batches on the fly, so the
 * reader is format-transparent to the core model.
 *
 * Errors surface two ways: open() returns the TraceIoResult, and a
 * corrupt block discovered mid-stream flips error().  The simulation
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

#include "trace/trace_buffer.h"
#include "trace/trace_source.h"
#include "tracestore/trace_codec.h"

namespace rnr {

/** Block-at-a-time TraceSource over a trace file (v1 or v2). */
class StreamingTraceReader final : public TraceSource
{
  public:
    StreamingTraceReader() = default;

    /** Opens @p path and positions at the first record. */
    TraceIoResult open(const std::string &path);

    bool done() override;
    TraceRecord take() override;

    /** Zero-copy: the rest of the decoded block is one run. */
    const TraceRecord *takeBlock(std::size_t &n) override;

    /**
     * Decodes every remaining block of a freshly opened reader straight
     * onto the end of @p buf: no per-record take(), no staging copy.
     * Returns the first error; the records of the blocks before it stay
     * in @p buf.
     */
    TraceIoResult readAll(TraceBuffer &buf);

    /** Set when a block failed to decode mid-stream (see file docs). */
    bool error() const { return error_; }

    /** Details of the mid-stream failure (valid when error()). */
    const TraceIoResult &errorResult() const { return error_result_; }

    /** Records handed out so far (diagnostics). */
    std::uint64_t recordsDelivered() const { return delivered_; }

  private:
    bool refill();
    /** Appends the next block to @p out; false at the end or on error
     *  (both mark the reader exhausted). */
    bool refillInto(std::vector<TraceRecord> &out);
    bool refillV1(std::vector<TraceRecord> &out);
    bool refillV2(std::vector<TraceRecord> &out);
    void failStream(TraceIoStatus status, std::string detail);

    std::ifstream in_;
    std::string path_;
    std::uint64_t file_bytes_ = 0;
    std::uint32_t version_ = 0;
    std::uint32_t block_records_ = kDefaultBlockRecords;
    std::uint64_t v1_remaining_ = 0; ///< Records left (v1 only).

    std::vector<TraceRecord> block_;
    std::size_t pos_ = 0;
    std::vector<std::uint8_t> payload_;
    std::uint64_t delivered_ = 0;
    bool exhausted_ = false;
    bool error_ = false;
    TraceIoResult error_result_;
};

} // namespace rnr

#endif // RNR_TRACESTORE_TRACE_READER_H
