/**
 * @file
 * Instrumentation facade: the in-process equivalent of the paper's PIN
 * tooling, plus a simulated virtual-address space.
 *
 * Workloads compute on ordinary host containers but report every traced
 * access as an offset into a *simulated* address space.  AddressSpace is a
 * bump allocator handing out page-aligned regions for each named array, so
 * the traces workloads emit look exactly like the kernel traces the paper
 * extracts: interleaved loads/stores over a handful of large arrays.
 */
#ifndef RNR_TRACE_TRACER_H
#define RNR_TRACE_TRACER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/record.h"
#include "trace/trace_buffer.h"

namespace rnr {

/** Simulated-VA bump allocator shared by all cores of a workload. */
class AddressSpace
{
  public:
    struct Region {
        std::string name;
        Addr base;
        std::uint64_t bytes;
    };

    /** Reserves @p bytes for @p name; returns the region base address. */
    Addr allocate(const std::string &name, std::uint64_t bytes);

    /** Total bytes allocated so far (input-size denominators, Fig 13). */
    std::uint64_t totalBytes() const { return cursor_ - kBase; }

    const std::vector<Region> &regions() const { return regions_; }

    /** Finds a region by name; returns nullptr when absent. */
    const Region *find(const std::string &name) const;

  private:
    /** Leave low VA space free so address 0 is never handed out. */
    static constexpr Addr kBase = 0x10000000;

    Addr cursor_ = kBase;
    std::vector<Region> regions_;
};

/**
 * Per-core trace emitter.  Plain-instruction work between memory ops is
 * accumulated with instr() and attached as the gap of the next record.
 *
 * Records are staged in a fixed block of kDefaultBlockRecords.  A full
 * block goes to the sink at once; flush() hands over the partial one
 * (Workload::emitIteration() flushes at the end of every iteration), so
 * no tracer ever holds more than one block, whatever the sink does.
 */
class Tracer
{
  public:
    explicit Tracer(TraceSink *sink = nullptr)
        : block_(static_cast<TraceRecord *>(
              ::operator new(kDefaultBlockRecords * sizeof(TraceRecord)))),
          sink_(sink)
    {
    }

    /** Accounts @p n untraced instructions of compute. */
    void instr(std::uint32_t n) { gap_ += n; }

    void
    load(Addr a, std::uint32_t pc)
    {
        push(TraceRecord::load(a, pc, takeGap()));
    }

    void
    store(Addr a, std::uint32_t pc)
    {
        push(TraceRecord::store(a, pc, takeGap()));
    }

    /** Emits an RnR software-interface record (Table I call). */
    void
    control(RnrOp op, Addr payload0 = 0, std::uint64_t payload1 = 0)
    {
        TraceRecord r = TraceRecord::control(op, payload0, payload1);
        r.gap = takeGap();
        push(r);
    }

    /** Passes ready-made records to the sink as they are, gaps
     *  included, after the staged ones (a trace file replayed as a
     *  workload); the run is not restaged. */
    void
    write(const TraceRecord *recs, std::size_t n)
    {
        flush();
        if (sink_)
            sink_->write(recs, n);
    }

    /** Hands the staged records to the sink (none is a no-op).  With
     *  no sink attached they are dropped. */
    void
    flush()
    {
        if (staged_ != 0 && sink_)
            sink_->write(block_.get(), staged_);
        staged_ = 0;
    }

    /** Flushes into the current sink, then sends subsequent records to
     *  @p sink (null = detach); a pending gap is dropped. */
    void
    retarget(TraceSink *sink)
    {
        flush();
        sink_ = sink;
        gap_ = 0;
    }

    /** Drops the staged records and detaches without flushing, for an
     *  iteration abandoned by an exception: the sink may be gone. */
    void
    abandon()
    {
        staged_ = 0;
        sink_ = nullptr;
        gap_ = 0;
    }

  private:
    void
    push(const TraceRecord &r)
    {
        block_.get()[staged_++] = r;
        if (staged_ == kDefaultBlockRecords)
            flush();
    }

    std::uint32_t
    takeGap()
    {
        std::uint32_t g = gap_;
        gap_ = 0;
        return g;
    }

    struct FreeBlock {
        void operator()(TraceRecord *p) const { ::operator delete(p); }
    };

    /** Uninitialised storage for one block, so only the pages a tracer
     *  writes become resident (a trace file's tracer writes a few RnR
     *  calls a core). */
    std::unique_ptr<TraceRecord, FreeBlock> block_;
    std::size_t staged_ = 0;
    TraceSink *sink_;
    std::uint32_t gap_ = 0;
};

} // namespace rnr

#endif // RNR_TRACE_TRACER_H
