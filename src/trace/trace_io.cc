#include "trace/trace_io.h"

#include <cstring>
#include <sstream>

namespace rnr {

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

} // namespace rnr
