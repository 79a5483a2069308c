#include "harness/json_write.h"

#include <cmath>
#include <cstdio>
#include <fstream>

#ifdef _WIN32
#include <process.h>
#define rnr_getpid _getpid
#else
#include <unistd.h>
#define rnr_getpid getpid
#endif

namespace rnr {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonQuote(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

std::string
jsonU64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
jsonDouble(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

const char *
jsonBool(bool v)
{
    return v ? "true" : "false";
}

bool
writeFileAtomic(const std::string &path, const std::string &content)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(rnr_getpid());
    {
        std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
        if (!out)
            return false;
        out << content;
        if (!out)
            return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace rnr
