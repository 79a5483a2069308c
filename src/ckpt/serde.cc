#include "ckpt/serde.h"

namespace rnr {
namespace ckpt {

const char *
toString(CkptIoStatus s)
{
    switch (s) {
    case CkptIoStatus::Ok: return "ok";
    case CkptIoStatus::OpenFail: return "open-fail";
    case CkptIoStatus::BadMagic: return "bad-magic";
    case CkptIoStatus::Truncated: return "truncated";
    case CkptIoStatus::BadChecksum: return "bad-checksum";
    }
    return "unknown";
}

std::string
CkptIoResult::message() const
{
    std::string m = toString(status);
    if (!detail.empty()) {
        m += ": ";
        m += detail;
    }
    return m;
}

} // namespace ckpt
} // namespace rnr
