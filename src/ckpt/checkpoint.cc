#include "ckpt/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace fs = std::filesystem;

namespace rnr {
namespace ckpt {

const char *
toString(SectionId id)
{
    switch (id) {
#define RNR_CKPT_SECTION_NAME(name, value, retired)                           \
    case SectionId::name:                                                     \
        return #name;
        RNR_CKPT_SECTIONS(RNR_CKPT_SECTION_NAME)
#undef RNR_CKPT_SECTION_NAME
    }
    return "?";
}

bool
sectionRetired(SectionId id)
{
    switch (id) {
#define RNR_CKPT_SECTION_RETIRED(name, value, retired)                        \
    case SectionId::name:                                                     \
        return retired;
        RNR_CKPT_SECTIONS(RNR_CKPT_SECTION_RETIRED)
#undef RNR_CKPT_SECTION_RETIRED
    }
    return false;
}

const std::vector<SectionId> &
allSectionIds()
{
    static const std::vector<SectionId> ids = {
#define RNR_CKPT_SECTION_ID(name, value, retired) SectionId::name,
        RNR_CKPT_SECTIONS(RNR_CKPT_SECTION_ID)
#undef RNR_CKPT_SECTION_ID
    };
    return ids;
}

// ---- SnapshotWriter ----

Ser &
SnapshotWriter::section(SectionId id)
{
    closeSection();
    cur_ = Ser();
    cur_id_ = static_cast<std::uint64_t>(id);
    open_ = true;
    return cur_;
}

void
SnapshotWriter::closeSection()
{
    if (!open_)
        return;
    sections_.emplace_back(cur_id_, cur_.take());
    open_ = false;
}

std::vector<std::uint8_t>
SnapshotWriter::finish()
{
    closeSection();

    Ser out;
    out.raw(kCkptMagic, sizeof kCkptMagic);
    out.scalar(kCkptVersion);
    out.str(header_.workload_key);
    out.str(header_.full_key);
    out.scalar(header_.window);
    std::uint64_t count = sections_.size();
    out.scalar(count);
    for (auto &s : sections_) {
        out.scalar(s.first);
        std::uint64_t len = s.second.size();
        out.scalar(len);
        out.raw(s.second.data(), s.second.size());
    }
    const std::uint64_t sum = fnv1a64(out.buffer().data(), out.size());
    out.scalar(sum);
    return out.take();
}

// ---- SnapshotReader ----

CkptIoResult
SnapshotReader::parse(const std::vector<std::uint8_t> &blob)
{
    data_ = nullptr;
    sections_.clear();
    offsets_.clear();

    if (blob.size() < sizeof kCkptMagic + 8)
        return CkptIoResult::fail(CkptIoStatus::Truncated,
                                  "blob smaller than magic + checksum");
    if (std::memcmp(blob.data(), kCkptMagic, sizeof kCkptMagic) != 0)
        return CkptIoResult::fail(CkptIoStatus::BadMagic,
                                  "not an rnr-ckpt-v1 snapshot");

    // Checksum covers everything before the trailing u64.
    const std::size_t body = blob.size() - 8;
    const std::uint64_t want = fnv1a64(blob.data(), body);
    std::uint64_t got = 0;
    for (int i = 0; i < 8; ++i)
        got |= static_cast<std::uint64_t>(blob[body + i]) << (8 * i);
    if (want != got)
        return CkptIoResult::fail(CkptIoStatus::BadChecksum,
                                  "payload bytes do not match trailer");
    checksum_ = got;

    Deser d(blob.data() + sizeof kCkptMagic, body - sizeof kCkptMagic);
    std::uint64_t version = 0;
    d.scalar(version);
    if (d.ok() && version != kCkptVersion)
        return CkptIoResult::fail(CkptIoStatus::BadVersion,
                                  "version " + std::to_string(version));
    d.str(header_.workload_key);
    d.str(header_.full_key);
    d.scalar(header_.window);
    std::uint64_t count = 0;
    d.scalar(count);
    if (!d.ok())
        return d.result();
    for (std::uint64_t i = 0; i < count; ++i) {
        SectionInfo info;
        d.scalar(info.id);
        d.scalar(info.bytes);
        if (!d.ok())
            return d.result();
        if (info.bytes > d.remaining())
            return CkptIoResult::fail(
                CkptIoStatus::BadSection,
                std::string(toString(static_cast<SectionId>(info.id))) +
                    " section overruns the blob");
        // Record the payload position, then skip over it.
        const std::size_t at = sizeof kCkptMagic + d.pos();
        offsets_.emplace_back(at, info.bytes);
        sections_.push_back(info);
        std::vector<std::uint8_t> skip(
            static_cast<std::size_t>(info.bytes));
        if (info.bytes)
            d.raw(skip.data(), skip.size());
    }
    if (!d.ok())
        return d.result();
    if (d.remaining() != 0)
        return CkptIoResult::fail(CkptIoStatus::BadSection,
                                  "trailing bytes after section table");
    data_ = blob.data();
    return {};
}

bool
SnapshotReader::hasSection(SectionId id) const
{
    for (const SectionInfo &s : sections_)
        if (s.id == static_cast<std::uint64_t>(id))
            return true;
    return false;
}

Deser
SnapshotReader::section(SectionId id) const
{
    for (std::size_t i = 0; i < sections_.size(); ++i) {
        if (sections_[i].id == static_cast<std::uint64_t>(id) && data_)
            return Deser(data_ + offsets_[i].first,
                         static_cast<std::size_t>(offsets_[i].second));
    }
    return Deser(nullptr, 0);
}

// ---- File I/O ----

CkptIoResult
readSnapshotFile(const std::string &path, std::vector<std::uint8_t> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return CkptIoResult::fail(CkptIoStatus::OpenFail, path);
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    in.seekg(0, std::ios::beg);
    out.resize(static_cast<std::size_t>(size < 0 ? 0 : size));
    if (!out.empty())
        in.read(reinterpret_cast<char *>(out.data()),
                static_cast<std::streamsize>(out.size()));
    if (!in)
        return CkptIoResult::fail(CkptIoStatus::Truncated,
                                  path + ": short read");
    return {};
}

CkptIoResult
writeSnapshotFile(const std::string &path,
                  const std::vector<std::uint8_t> &blob)
{
    std::error_code ec;
    const fs::path target(path);
    if (target.has_parent_path())
        fs::create_directories(target.parent_path(), ec);

#ifndef _WIN32
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0)
        return CkptIoResult::fail(CkptIoStatus::OpenFail,
                                  tmp + ": " + std::strerror(errno));
    std::size_t off = 0;
    while (off < blob.size()) {
        const ssize_t n =
            ::write(fd, blob.data() + off, blob.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const std::string why = std::strerror(errno);
            ::close(fd);
            ::unlink(tmp.c_str());
            return CkptIoResult::fail(CkptIoStatus::WriteFail,
                                      tmp + ": " + why);
        }
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        ::unlink(tmp.c_str());
        return CkptIoResult::fail(CkptIoStatus::WriteFail,
                                  tmp + ": fsync: " + why);
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const std::string why = std::strerror(errno);
        ::unlink(tmp.c_str());
        return CkptIoResult::fail(CkptIoStatus::WriteFail,
                                  path + ": rename: " + why);
    }
#else
    std::ofstream outf(path, std::ios::binary | std::ios::trunc);
    if (!outf)
        return CkptIoResult::fail(CkptIoStatus::OpenFail, path);
    outf.write(reinterpret_cast<const char *>(blob.data()),
               static_cast<std::streamsize>(blob.size()));
    if (!outf)
        return CkptIoResult::fail(CkptIoStatus::WriteFail, path);
#endif
    return {};
}

CkptIoResult
inspectSnapshotFile(const std::string &path, SnapshotInfo &out)
{
    std::vector<std::uint8_t> blob;
    if (CkptIoResult r = readSnapshotFile(path, blob); !r.ok())
        return r;
    SnapshotReader reader;
    if (CkptIoResult r = reader.parse(blob); !r.ok())
        return r;
    out.header = reader.header();
    out.sections = reader.sections();
    out.total_bytes = blob.size();
    out.checksum = reader.checksum();
    return {};
}

} // namespace ckpt
} // namespace rnr
