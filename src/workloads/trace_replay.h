/**
 * @file
 * Trace-file workload: replays an on-disk trace as if it were one of
 * the in-process SPMD kernels.
 *
 * This is the consumer end of `trace_tools convert`: a ChampSim trace
 * imported to our format (or any trace file) becomes a runnable
 * workload — app "tracefile", input = the file path (single core) or a
 * prefix with `<prefix>.c<K>.rnrt` per-core files.  Every "iteration"
 * replays the same file, which matches how record-and-replay is
 * evaluated: iteration 0 records, later iterations replay the
 * identical access stream.
 *
 * The file carries only loads/stores/gaps; the RnR API calls of
 * Algorithm 1 are injected here per iteration (init + AddrBase over
 * the file's observed address span + start on iteration 0, replay
 * afterwards, teardown at the end), so the RnR prefetcher drives a
 * foreign trace exactly as it drives the native kernels.
 *
 * emitPrologue()/emitEpilogue() are the one place that injection
 * happens.  openIteration() hands each core a TraceFileStream
 * (prologue, the file streamed block by block, epilogue), which the
 * runner simulates with one decoded block resident per core;
 * emitIteration() sends the same records through the core's tracer
 * into whatever sinks the caller passes.
 */
#ifndef RNR_WORKLOADS_TRACE_REPLAY_H
#define RNR_WORKLOADS_TRACE_REPLAY_H

#include <string>
#include <vector>

#include "trace/trace_source.h"
#include "tracestore/trace_reader.h"
#include "workloads/workload.h"

namespace rnr {

/**
 * One core's records of one tracefile iteration: the RnR control
 * records injected before the file (prologue), the file itself read
 * block by block, then the records injected after it (epilogue, last
 * iteration only).  takeBlock() is zero-copy in all three parts.
 */
class TraceFileStream final : public TraceSource
{
  public:
    bool done() override;
    TraceRecord take() override;
    const TraceRecord *takeBlock(std::size_t &n) override;

    /** Set when a block of the file failed to decode mid-stream. */
    bool error() const { return reader_.error(); }
    const TraceIoResult &errorResult() const { return reader_.errorResult(); }

  private:
    friend class TraceFileWorkload;

    enum Part : unsigned { kStart, kPrologue, kFile, kEpilogue, kEnd };

    /** The source of the part being drained. */
    TraceSource &
    part()
    {
        return part_ == kFile ? static_cast<TraceSource &>(reader_)
                              : buffer_;
    }

    /** Moves on to the next part.  A buffer part is attached here, on
     *  the first drain, so a stream may move until then. */
    void advance();

    unsigned part_ = kStart;
    TraceBuffer prologue_;
    StreamingTraceReader reader_;
    TraceBuffer epilogue_;
    BufferSource buffer_; ///< Drains prologue_, then epilogue_.
};

class TraceFileWorkload : public Workload
{
  public:
    /**
     * @param input path of a trace file (one core), or a prefix such
     *   that `<input>.c<K>.rnrt` exists for cores 0..opts.cores-1.
     * Throws std::runtime_error when a per-core file is missing or
     * unreadable (the constructor summarises every file up front).
     */
    TraceFileWorkload(std::string input, WorkloadOptions opts);

    /** Cores the on-disk layout provides: 1 when @p input is itself a
     *  file, else the count of consecutive `<input>.c<K>.rnrt` files
     *  (0 when neither exists). */
    static unsigned detectCores(const std::string &input);

    std::string name() const override { return "tracefile"; }

    /**
     * Opens iteration @p iter: emits the RnR control records around
     * each core's file and opens the file.  Returns one stream per core
     * yielding exactly the records emitIteration() sends that core's
     * sink.  Call once per iteration, in order, like emitIteration()
     * (iteration 0 allocates the RnR metadata regions).  Throws
     * std::runtime_error naming the file when one cannot be opened.
     */
    std::vector<TraceFileStream> openIteration(unsigned iter, bool is_last);

    std::uint64_t inputBytes() const override { return span_bytes_; }
    std::uint64_t targetBytes() const override { return span_bytes_; }

    /** The file's records plus the control records around them, so a
     *  drained buffer is sized once from the footer. */
    std::size_t
    recordsHint(unsigned core) const override
    {
        return records_hint_[core];
    }

  protected:
    /** Streams each core's file between its control records; throws
     *  std::runtime_error naming a file that fails to open or decode. */
    void emit(unsigned iter, bool is_last) override;

  private:
    std::string corePath(unsigned core) const;
    /** Core @p core's control records before its file. */
    void emitPrologue(unsigned core, unsigned iter);
    /** Core @p core's control records after its file. */
    void emitEpilogue(unsigned core, bool is_last);

    std::string input_;
    bool single_file_ = false;
    std::uint64_t span_bytes_ = 0; ///< Observed address span of the trace.
    Addr base_addr_ = 0;           ///< Lowest load/store address.
    std::vector<std::size_t> records_hint_; ///< Per core.
};

} // namespace rnr

#endif // RNR_WORKLOADS_TRACE_REPLAY_H
