#include "trace/trace_io.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

namespace rnr {

namespace {

template <typename T>
void
put(std::ofstream &out, T value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(value));
}

} // namespace

const char *
toString(TraceIoStatus status)
{
    switch (status) {
      case TraceIoStatus::Ok: return "ok";
      case TraceIoStatus::OpenFailed: return "cannot open";
      case TraceIoStatus::BadMagic: return "bad magic";
      case TraceIoStatus::BadVersion: return "unsupported version";
      case TraceIoStatus::Truncated: return "truncated";
      case TraceIoStatus::CorruptBlock: return "corrupt block";
      case TraceIoStatus::BadFooter: return "bad footer";
      case TraceIoStatus::WriteFailed: return "write failed";
    }
    return "?";
}

std::string
TraceIoResult::message() const
{
    std::ostringstream os;
    os << toString(status);
    if (!detail.empty())
        os << " (" << detail << ")";
    if (sys_errno != 0)
        os << ": " << std::strerror(sys_errno);
    return os.str();
}

TraceIoResult
TraceIoResult::fail(TraceIoStatus s, std::string detail, int err)
{
    TraceIoResult r;
    r.status = s;
    r.detail = std::move(detail);
    r.sys_errno = err;
    return r;
}

TraceIoResult
writeTraceFile(const std::string &path, const TraceBuffer &buf)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return TraceIoResult::fail(TraceIoStatus::OpenFailed, path, errno);
    out.write(kTraceFileMagic, sizeof(kTraceFileMagic));
    put<std::uint32_t>(out, kTraceFormatVersion);
    put<std::uint32_t>(out, 0); // reserved
    put<std::uint64_t>(out, buf.size());
    for (const TraceRecord &r : buf.records()) {
        put<std::uint64_t>(out, r.addr);
        put<std::uint64_t>(out, r.aux);
        put<std::uint32_t>(out, r.pc);
        put<std::uint32_t>(out, r.gap);
        put<std::uint8_t>(out, static_cast<std::uint8_t>(r.kind));
        put<std::uint8_t>(out, static_cast<std::uint8_t>(r.ctrl));
        put<std::uint16_t>(out, 0); // padding
    }
    out.flush();
    if (!out)
        return TraceIoResult::fail(TraceIoStatus::WriteFailed, path, errno);
    return TraceIoResult::ok();
}

} // namespace rnr
