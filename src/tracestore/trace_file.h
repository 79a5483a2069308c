/**
 * @file
 * Version-transparent trace-file convenience API.
 *
 * trace/trace_io.h owns the uncompressed v1 format and
 * tracestore/trace_codec.h the compressed v2 format; tools and tests
 * mostly just want "read whatever this file is".  These helpers probe
 * the version field and dispatch.
 */
#ifndef RNR_TRACESTORE_TRACE_FILE_H
#define RNR_TRACESTORE_TRACE_FILE_H

#include <string>

#include "tracestore/trace_codec.h"

namespace rnr {

/**
 * Reads a v1 or v2 trace file onto the end of @p buf, decoding each
 * block straight into it.  Growth is the caller's to avoid: reserve
 * @p buf from readAnyTraceFileStats() (clamped by
 * kMinEncodedRecordBytes) first, as TraceFileWorkload::recordsHint()
 * does.
 */
TraceIoResult readAnyTraceFile(const std::string &path, TraceBuffer &buf);

/**
 * Summarises @p path without materialising it: v2 files answer from
 * the footer (no payload decode); v1 files are streamed once to count.
 */
TraceIoResult readAnyTraceFileStats(const std::string &path,
                                    TraceFileStats &stats);

/** Bytes @p path occupies on disk; 0 when it cannot be stat'ed. */
std::uint64_t traceFileSizeBytes(const std::string &path);

} // namespace rnr

#endif // RNR_TRACESTORE_TRACE_FILE_H
