/**
 * @file
 * Binary trace file I/O (v1 format) and the shared I/O status type.
 *
 * ChampSim workflows revolve around trace files captured once and
 * replayed across many configurations; this module gives the in-process
 * traces the same property.  The format is versioned, little-endian and
 * self-describing enough for the trace_tools example to summarise a
 * file without the generating workload.
 *
 * v1 layout: 8-byte magic "RNRTRACE", u32 version, u32 reserved,
 * u64 record count, then per record: u64 addr, u64 aux, u32 pc,
 * u32 gap, u8 kind, u8 ctrl, u16 padding (28 bytes/record).
 *
 * The compressed v2 format (delta+varint blocks with a stats footer)
 * lives in tracestore/trace_codec.h.  Both formats are read by one
 * decoder, StreamingTraceReader (tracestore/trace_reader.h), and
 * readAnyTraceFile() in tracestore/trace_file.h.  writeTraceFile()
 * here deliberately keeps emitting v1 — tests and the `trace_tools
 * stats` compression report depend on a stable uncompressed baseline.
 *
 * Every reader and writer reports *why* it failed through TraceIoResult
 * (bad magic vs. version vs. truncation vs. errno) instead of a bare
 * bool; TraceIoResult converts to bool so `if (!readAnyTraceFile(...))`
 * call sites read naturally.
 */
#ifndef RNR_TRACE_TRACE_IO_H
#define RNR_TRACE_TRACE_IO_H

#include <string>

#include "trace/trace_buffer.h"

namespace rnr {

/** First 8 bytes of every trace file, v1 and v2. */
constexpr char kTraceFileMagic[8] = {'R', 'N', 'R', 'T', 'R', 'A', 'C', 'E'};

/** Current v1 trace-file format version written by writeTraceFile(). */
constexpr std::uint32_t kTraceFormatVersion = 1;

/** Why a trace-file operation failed (TraceIoResult::status). */
enum class TraceIoStatus : std::uint8_t {
    Ok,
    OpenFailed,   ///< open/create failed; sys_errno says why.
    BadMagic,     ///< First 8 bytes are not "RNRTRACE".
    BadVersion,   ///< Magic ok but the version is not one we decode.
    Truncated,    ///< File ends mid-header or mid-record.
    CorruptBlock, ///< v2 block payload failed to decode.
    BadFooter,    ///< v2 stats footer missing or inconsistent.
    WriteFailed,  ///< Write or final flush failed; sys_errno says why.
};

/** Human label for @p status ("bad magic", "truncated", ...). */
const char *toString(TraceIoStatus status);

/**
 * Outcome of a trace-file read or write.  Converts to bool (true = Ok)
 * so `if (!readAnyTraceFile(...))` call sites stay short; the
 * status/detail are what `trace_tools inspect` and the trace store's
 * corrupt-entry skip path print.
 */
struct TraceIoResult {
    TraceIoStatus status = TraceIoStatus::Ok;
    int sys_errno = 0;  ///< errno at failure time (0 = not applicable).
    std::string detail; ///< e.g. "record 17 of 40", "version 7".

    explicit operator bool() const { return status == TraceIoStatus::Ok; }

    /** One-line description: "truncated (record 17 of 40)". */
    std::string message() const;

    static TraceIoResult ok() { return {}; }
    static TraceIoResult fail(TraceIoStatus s, std::string detail = "",
                              int err = 0);
};

/** Writes @p buf to @p path in v1 format. */
TraceIoResult writeTraceFile(const std::string &path,
                             const TraceBuffer &buf);

} // namespace rnr

#endif // RNR_TRACE_TRACE_IO_H
