#include "tracestore/trace_file.h"

#include <filesystem>
#include <system_error>

#include "tracestore/trace_reader.h"

namespace rnr {

TraceIoResult
readAnyTraceFile(const std::string &path, TraceBuffer &buf)
{
    StreamingTraceReader reader;
    if (TraceIoResult r = reader.open(path); !r)
        return r;
    return reader.readAll(buf);
}

TraceIoResult
readAnyTraceFileStats(const std::string &path, TraceFileStats &stats)
{
    std::uint32_t version = 0;
    if (TraceIoResult r = probeTraceFileVersion(path, version); !r)
        return r;
    if (version == kTraceFormatVersionV2)
        return readTraceFileV2Stats(path, stats);

    // v1 carries no footer: stream the records once and count.
    StreamingTraceReader reader;
    if (TraceIoResult r = reader.open(path); !r)
        return r;
    TraceFileStats s;
    bool have_mem = false;
    while (!reader.done()) {
        const TraceRecord r = reader.take();
        ++s.records;
        switch (r.kind) {
          case RecordKind::Load: ++s.loads; break;
          case RecordKind::Store: ++s.stores; break;
          case RecordKind::Control: ++s.controls; break;
        }
        s.instructions +=
            r.gap + (r.kind != RecordKind::Control ? 1 : 0);
        if (r.kind != RecordKind::Control) {
            if (!have_mem || r.addr < s.min_addr)
                s.min_addr = r.addr;
            if (!have_mem || r.addr > s.max_addr)
                s.max_addr = r.addr;
            have_mem = true;
        }
    }
    if (reader.error())
        return reader.errorResult();
    s.raw_bytes = s.records * sizeof(TraceRecord);
    stats = s;
    return TraceIoResult::ok();
}

std::uint64_t
traceFileSizeBytes(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

} // namespace rnr
