/**
 * @file
 * Where a Tracer's records go.
 *
 * A Tracer stages records in a fixed block of kDefaultBlockRecords and
 * hands each full block, then the partial last one at the end of an
 * iteration, to its core's TraceSink.  The sink decides what a block
 * becomes: a TraceBuffer appends it (whole-iteration buffers for tests
 * and tools), a TraceFileWriter encodes it into a v2 trace file (the
 * trace store's capture), a SegmentSink into an in-memory encoded
 * segment (store-off cells).  Because the Tracer's blocks and the v2
 * codec's blocks are the same size, a sink that encodes each block as
 * it arrives writes exactly the blocks a whole-buffer writer would.
 */
#ifndef RNR_TRACE_TRACE_SINK_H
#define RNR_TRACE_TRACE_SINK_H

#include <cstddef>
#include <cstdint>

#include "trace/record.h"

namespace rnr {

/** Records per block: the Tracer's staging block, the v2 codec's
 *  default block and the longest run a TraceSource stages at once. */
constexpr std::uint32_t kDefaultBlockRecords = 4096;

/** Consumer of one core's records, a block at a time. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Takes @p n > 0 consecutive records; @p recs is valid only for
     *  the call. */
    virtual void write(const TraceRecord *recs, std::size_t n) = 0;
};

} // namespace rnr

#endif // RNR_TRACE_TRACE_SINK_H
