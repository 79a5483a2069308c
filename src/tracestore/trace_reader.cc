#include "tracestore/trace_reader.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace rnr {

namespace {

template <typename T>
bool
get(std::istream &in, T &value)
{
    in.read(reinterpret_cast<char *>(&value), sizeof(value));
    return static_cast<bool>(in);
}

} // namespace

TraceIoResult
StreamingTraceReader::open(const std::string &path)
{
    path_ = path;
    in_.open(path, std::ios::binary | std::ios::ate);
    if (!in_)
        return TraceIoResult::fail(TraceIoStatus::OpenFailed, path, errno);
    file_bytes_ = static_cast<std::uint64_t>(in_.tellg());
    in_.seekg(0);

    char magic[8];
    in_.read(magic, sizeof(magic));
    if (!in_)
        return TraceIoResult::fail(TraceIoStatus::Truncated,
                                   "file shorter than the 8-byte magic");
    if (std::memcmp(magic, kTraceFileMagic, sizeof(kTraceFileMagic)) != 0)
        return TraceIoResult::fail(TraceIoStatus::BadMagic,
                                   "expected RNRTRACE");
    if (!get(in_, version_))
        return TraceIoResult::fail(TraceIoStatus::Truncated,
                                   "missing version field");
    if (version_ == kTraceFormatVersion) {
        std::uint32_t reserved = 0;
        if (!get(in_, reserved) || !get(in_, v1_remaining_))
            return TraceIoResult::fail(TraceIoStatus::Truncated,
                                       "missing v1 header fields");
    } else if (version_ == kTraceFormatVersionV2) {
        if (!get(in_, block_records_) || block_records_ == 0)
            return TraceIoResult::fail(TraceIoStatus::Truncated,
                                       "missing block size field");
    } else {
        return TraceIoResult::fail(TraceIoStatus::BadVersion,
                                   "version " + std::to_string(version_));
    }
    return TraceIoResult::ok();
}

void
StreamingTraceReader::failStream(TraceIoStatus status, std::string detail)
{
    error_ = true;
    exhausted_ = true;
    error_result_ =
        TraceIoResult::fail(status, path_ + ": " + std::move(detail));
}

bool
StreamingTraceReader::refillV1(std::vector<TraceRecord> &out)
{
    if (v1_remaining_ == 0)
        return false;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(v1_remaining_, block_records_));
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord r;
        std::uint8_t kind = 0, ctrl = 0;
        std::uint16_t padding = 0;
        if (!get(in_, r.addr) || !get(in_, r.aux) || !get(in_, r.pc) ||
            !get(in_, r.gap) || !get(in_, kind) || !get(in_, ctrl) ||
            !get(in_, padding)) {
            failStream(TraceIoStatus::Truncated,
                       "v1 record stream ended early");
            return false;
        }
        r.kind = static_cast<RecordKind>(kind);
        r.ctrl = static_cast<RnrOp>(ctrl);
        out.push_back(r);
    }
    v1_remaining_ -= n;
    return true;
}

bool
StreamingTraceReader::refillV2(std::vector<TraceRecord> &out)
{
    std::uint32_t payload_bytes = 0, record_count = 0;
    if (!get(in_, payload_bytes) || !get(in_, record_count)) {
        failStream(TraceIoStatus::Truncated,
                   "block header ended early (missing terminator?)");
        return false;
    }
    if (payload_bytes == 0 && record_count == 0)
        return false; // terminator: clean end of stream
    if (record_count == 0 || record_count > block_records_) {
        failStream(TraceIoStatus::CorruptBlock,
                   "implausible record count " +
                       std::to_string(record_count));
        return false;
    }
    // Bound the allocation by the bytes the file has left, so a lying
    // payload_bytes field cannot drive it.
    const std::streamoff at = in_.tellg();
    if (at < 0 ||
        payload_bytes > file_bytes_ - static_cast<std::uint64_t>(at)) {
        failStream(TraceIoStatus::Truncated,
                   "payload of " + std::to_string(payload_bytes) +
                       " bytes overruns the file");
        return false;
    }
    payload_.resize(payload_bytes);
    in_.read(reinterpret_cast<char *>(payload_.data()), payload_bytes);
    if (!in_) {
        failStream(TraceIoStatus::Truncated, "block payload ended early");
        return false;
    }
    if (!decodeBlock(payload_.data(), payload_.size(), record_count,
                     out)) {
        failStream(TraceIoStatus::CorruptBlock,
                   "payload of " + std::to_string(payload_bytes) +
                       " bytes failed to decode");
        return false;
    }
    return true;
}

bool
StreamingTraceReader::refillInto(std::vector<TraceRecord> &out)
{
    const bool refilled = version_ == kTraceFormatVersionV2
                              ? refillV2(out)
                              : refillV1(out);
    if (!refilled)
        exhausted_ = true;
    return refilled;
}

bool
StreamingTraceReader::refill()
{
    block_.clear();
    pos_ = 0;
    return refillInto(block_);
}

TraceIoResult
StreamingTraceReader::readAll(TraceBuffer &buf)
{
    const std::size_t before = buf.size();
    while (!exhausted_ &&
           buf.appendWith([this](std::vector<TraceRecord> &out) {
               return refillInto(out);
           })) {
    }
    delivered_ += buf.size() - before;
    return error_ ? error_result_ : TraceIoResult::ok();
}

bool
StreamingTraceReader::done()
{
    if (pos_ < block_.size())
        return false;
    if (exhausted_)
        return true;
    return !refill();
}

TraceRecord
StreamingTraceReader::take()
{
    ++delivered_;
    return block_[pos_++];
}

const TraceRecord *
StreamingTraceReader::takeBlock(std::size_t &n)
{
    if (pos_ >= block_.size() && (exhausted_ || !refill())) {
        n = 0;
        return nullptr;
    }
    const TraceRecord *run = block_.data() + pos_;
    n = block_.size() - pos_;
    pos_ = block_.size();
    delivered_ += n;
    return run;
}

} // namespace rnr
