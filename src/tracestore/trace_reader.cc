#include "tracestore/trace_reader.h"

#include <cerrno>

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

bool
FramedBlockSource::fail(TraceIoStatus status, std::string detail)
{
    error_ = true;
    exhausted_ = true;
    block_.clear(); // a partial decode must not be handed out
    error_result_ =
        TraceIoResult::fail(status, where_ + ": " + std::move(detail));
    return false;
}

bool
FramedBlockSource::refill()
{
    block_.clear();
    pos_ = 0;
    Frame f;
    if (exhausted_ || !nextFrame(f)) {
        exhausted_ = true;
        return false;
    }
    if (f.record_count == 0 || f.record_count > max_records_)
        return fail(TraceIoStatus::CorruptBlock,
                    "implausible record count " +
                        std::to_string(f.record_count));
    auto payloadOf = [&f](const char *what) {
        return "payload of " + std::to_string(f.payload_bytes) + " bytes " +
               what;
    };
    // Bound the payload by the bytes its container has left, so a lying
    // payload_bytes field cannot drive an allocation or a read.
    if (f.payload_bytes > f.bytes_left)
        return fail(TraceIoStatus::Truncated,
                    payloadOf("overruns the ") + container_);
    const std::uint8_t *bytes = payload(f.payload_bytes);
    if (!bytes)
        return fail(TraceIoStatus::Truncated, "block payload ended early");
    if (!decodeBlock(bytes, f.payload_bytes, f.record_count, block_))
        return fail(TraceIoStatus::CorruptBlock,
                    payloadOf("failed to decode"));
    return true;
}

bool
FramedBlockSource::done()
{
    return pos_ >= block_.size() && !refill();
}

TraceRecord
FramedBlockSource::take()
{
    ++delivered_;
    return block_[pos_++];
}

const TraceRecord *
FramedBlockSource::takeBlock(std::size_t &n)
{
    if (pos_ >= block_.size() && !refill()) {
        n = 0;
        return nullptr;
    }
    const TraceRecord *run = block_.data() + pos_;
    n = block_.size() - pos_;
    pos_ = block_.size();
    delivered_ += n;
    return run;
}

TraceIoResult
StreamingTraceReader::open(const std::string &path)
{
    where_ = path;
    in_.open(path, std::ios::binary | std::ios::ate);
    if (!in_)
        return TraceIoResult::fail(TraceIoStatus::OpenFailed, path, errno);
    file_bytes_ = static_cast<std::uint64_t>(in_.tellg());
    in_.seekg(0);
    return readV2FileHeader(in_, max_records_);
}

bool
StreamingTraceReader::nextFrame(Frame &f)
{
    if (!get(in_, f.payload_bytes) || !get(in_, f.record_count))
        return fail(TraceIoStatus::Truncated,
                    "block header ended early (missing terminator?)");
    if (f.payload_bytes == 0 && f.record_count == 0)
        return false; // terminator: clean end of stream
    const std::streamoff at = in_.tellg();
    f.bytes_left = at < 0 ? 0 : file_bytes_ - static_cast<std::uint64_t>(at);
    return true;
}

const std::uint8_t *
StreamingTraceReader::payload(std::uint32_t payload_bytes)
{
    payload_.resize(payload_bytes);
    in_.read(reinterpret_cast<char *>(payload_.data()), payload_bytes);
    return in_ ? payload_.data() : nullptr;
}

} // namespace rnr
