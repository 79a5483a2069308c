/**
 * @file
 * Streaming v2 trace writer: the one encoder of the v2 file format
 * (layout in tracestore/trace_codec.h).
 *
 * open() writes the header; every write() encodes its records as
 * kDefaultBlockRecords-sized blocks and writes them at once; close()
 * writes the terminator, the block index and the stats footer.  Only one
 * encoded block and the 16-byte-a-block index are held in memory, so a
 * Tracer pointed at a TraceFileWriter captures an iteration of any
 * length in bounded memory.
 *
 * A Tracer hands over full blocks and one partial last block, which is
 * exactly the blocking writeTraceFileV2() applies to a whole buffer; the
 * two therefore produce byte-identical files (writeTraceFileV2 is this
 * writer fed the buffer).
 *
 * Write errors are sticky: the first one is kept, later writes are
 * dropped, and close() returns it.  The trace store's capture turns it
 * into an aborted capture (harness/runner.cc).
 */
#ifndef RNR_TRACESTORE_TRACE_WRITER_H
#define RNR_TRACESTORE_TRACE_WRITER_H

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace_sink.h"
#include "tracestore/trace_codec.h"

namespace rnr {

/** TraceSink that encodes its records into a v2 trace file. */
class TraceFileWriter final : public TraceSink
{
  public:
    explicit TraceFileWriter(
        std::uint32_t block_records = kDefaultBlockRecords);

    /** Creates @p path and writes the header. */
    TraceIoResult open(const std::string &path);

    /** Starts a stream that is encoded and counted but stored nowhere
     *  (the encode microbenchmark). */
    void openDiscard();

    void write(const TraceRecord *recs, std::size_t n) override;

    /** Writes the terminator and footer and closes the file; returns
     *  the stream's first error. */
    TraceIoResult close();

    /** Footer stats of the records written so far. */
    const TraceFileStats &stats() const { return stats_; }

    /** Bytes of the stream so far (header and blocks; all of the file
     *  after close()). */
    std::uint64_t bytesWritten() const { return bytes_; }

  private:
    struct FileCloser {
        void operator()(std::FILE *f) const { std::fclose(f); }
    };

    void begin();
    void put(const void *data, std::size_t n);
    template <typename T>
    void
    putValue(T value)
    {
        put(&value, sizeof(value));
    }
    void writeBlock(const TraceRecord *recs, std::size_t n);

    std::unique_ptr<std::FILE, FileCloser> file_;
    std::string path_;
    std::uint32_t block_records_;
    bool discard_ = false;
    std::vector<TraceBlockIndexEntry> index_;
    std::unique_ptr<std::uint8_t[]> frame_; ///< One worst-case block.
    BlockTally tally_; ///< Of every block so far.
    TraceFileStats stats_;
    std::uint64_t bytes_ = 0;
    TraceIoResult status_;
};

} // namespace rnr

#endif // RNR_TRACESTORE_TRACE_WRITER_H
