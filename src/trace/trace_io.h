/**
 * @file
 * The shared trace-file magic and the I/O status type.
 *
 * ChampSim workflows revolve around trace files captured once and
 * replayed across many configurations; this module gives the in-process
 * traces the same property.  There is one file format, the compressed
 * v2 format of tracestore/trace_codec.h: written by TraceFileWriter
 * (tracestore/trace_writer.h) and read by StreamingTraceReader
 * (tracestore/trace_reader.h), both a block at a time.  A file of any
 * other version, the retired uncompressed version 1 included, fails to
 * open as BadVersion.
 *
 * Every reader and writer reports *why* it failed through TraceIoResult
 * (bad magic vs. version vs. truncation vs. errno) instead of a bare
 * bool; TraceIoResult converts to bool so `if (!reader.open(...))`
 * call sites read naturally.
 */
#ifndef RNR_TRACE_TRACE_IO_H
#define RNR_TRACE_TRACE_IO_H

#include <cstdint>
#include <string>

namespace rnr {

/** First 8 bytes of every trace file. */
constexpr char kTraceFileMagic[8] = {'R', 'N', 'R', 'T', 'R', 'A', 'C', 'E'};

/** Why a trace-file operation failed (TraceIoResult::status). */
enum class TraceIoStatus : std::uint8_t {
    Ok,
    OpenFailed,   ///< open/create failed; sys_errno says why.
    BadMagic,     ///< First 8 bytes are not "RNRTRACE".
    BadVersion,   ///< Magic ok but the version is not one we decode.
    Truncated,    ///< File ends mid-header or mid-block.
    CorruptBlock, ///< A block payload failed to decode.
    BadFooter,    ///< Stats footer missing or inconsistent.
    WriteFailed,  ///< Write or final flush failed; sys_errno says why.
};

/** Human label for @p status ("bad magic", "truncated", ...). */
const char *toString(TraceIoStatus status);

/**
 * Outcome of a trace-file read or write.  Converts to bool (true = Ok)
 * so `if (!reader.open(...))` call sites stay short; the status/detail
 * are what `trace_tools inspect` and the trace store's corrupt-entry
 * skip path print.
 */
struct TraceIoResult {
    TraceIoStatus status = TraceIoStatus::Ok;
    int sys_errno = 0;  ///< errno at failure time (0 = not applicable).
    std::string detail; ///< e.g. "implausible record count 0", "version 7".

    explicit operator bool() const { return status == TraceIoStatus::Ok; }

    /** One-line description: "truncated (block payload ended early)". */
    std::string message() const;

    static TraceIoResult ok() { return {}; }
    static TraceIoResult fail(TraceIoStatus s, std::string detail = "",
                              int err = 0);
};

} // namespace rnr

#endif // RNR_TRACE_TRACE_IO_H
