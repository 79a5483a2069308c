/**
 * @file
 * A per-core, per-iteration container of trace records.
 *
 * A TraceBuffer is the materialising TraceSink: it keeps every record a
 * Tracer hands it, so Workload::emitIteration() can drain a whole
 * iteration into one buffer per core for tests, tools and System::run().
 * Buffers are plain vectors with a few convenience counters so tests can
 * assert on trace shape.
 */
#ifndef RNR_TRACE_TRACE_BUFFER_H
#define RNR_TRACE_TRACE_BUFFER_H

#include <cstdint>
#include <vector>

#include "trace/record.h"
#include "trace/trace_sink.h"

namespace rnr {

/** Growable record container with summary counters. */
class TraceBuffer final : public TraceSink
{
  public:
    void
    push(const TraceRecord &rec)
    {
        records_.push_back(rec);
        count(rec);
    }

    /** Appends a block of records (the Tracer's flush). */
    void
    write(const TraceRecord *recs, std::size_t n) override
    {
        records_.insert(records_.end(), recs, recs + n);
        for (std::size_t i = 0; i < n; ++i)
            count(recs[i]);
    }

    void
    clear()
    {
        records_.clear();
        loads_ = stores_ = controls_ = instrs_ = 0;
    }

    /** Pre-sizes the record store (capacity only; size is untouched). */
    void reserve(std::size_t n) { records_.reserve(n); }
    std::size_t capacity() const { return records_.capacity(); }

    const std::vector<TraceRecord> &records() const { return records_; }
    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }

    /** Bytes the stored records occupy in memory (size, not capacity) —
     *  the "raw" side of the trace store's raw-vs-compressed ratio. */
    std::uint64_t
    memoryBytes() const
    {
        return static_cast<std::uint64_t>(records_.size()) *
               sizeof(TraceRecord);
    }

    std::uint64_t loads() const { return loads_; }
    std::uint64_t stores() const { return stores_; }
    std::uint64_t controls() const { return controls_; }
    /** Total instructions this trace represents (memory ops + gaps). */
    std::uint64_t instructions() const { return instrs_; }

  private:
    void
    count(const TraceRecord &rec)
    {
        switch (rec.kind) {
          case RecordKind::Load: ++loads_; break;
          case RecordKind::Store: ++stores_; break;
          case RecordKind::Control: ++controls_; break;
        }
        instrs_ += rec.gap + (rec.kind != RecordKind::Control ? 1 : 0);
    }

    std::vector<TraceRecord> records_;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t controls_ = 0;
    std::uint64_t instrs_ = 0;
};

} // namespace rnr

#endif // RNR_TRACE_TRACE_BUFFER_H
