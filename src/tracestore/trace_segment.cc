#include "tracestore/trace_segment.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace rnr {

void
SegmentSink::write(const TraceRecord *recs, std::size_t n)
{
    for (std::size_t first = 0; first < n; first += kDefaultBlockRecords)
        encodeFramedBlock(
            recs + first,
            std::min<std::size_t>(kDefaultBlockRecords, n - first),
            bytes_);
}

bool
SegmentSource::fail(TraceIoStatus status, std::string detail)
{
    error_ = true;
    offset_ = bytes_.size();
    block_.clear(); // a partial decode must not be handed out
    error_result_ = TraceIoResult::fail(status, "in-memory segment: " +
                                                    std::move(detail));
    return false;
}

bool
SegmentSource::refill()
{
    block_.clear();
    pos_ = 0;
    const std::size_t left = bytes_.size() - offset_;
    if (left == 0)
        return false;
    if (left < 8)
        return fail(TraceIoStatus::Truncated, "block header ended early");
    std::uint32_t payload_bytes = 0, record_count = 0;
    std::memcpy(&payload_bytes, bytes_.data() + offset_, 4);
    std::memcpy(&record_count, bytes_.data() + offset_ + 4, 4);
    if (record_count == 0 || record_count > kDefaultBlockRecords)
        return fail(TraceIoStatus::CorruptBlock,
                    "implausible record count " +
                        std::to_string(record_count));
    if (payload_bytes > left - 8)
        return fail(TraceIoStatus::Truncated,
                    "payload of " + std::to_string(payload_bytes) +
                        " bytes overruns the segment");
    if (!decodeBlock(bytes_.data() + offset_ + 8, payload_bytes,
                     record_count, block_))
        return fail(TraceIoStatus::CorruptBlock,
                    "payload of " + std::to_string(payload_bytes) +
                        " bytes failed to decode");
    offset_ += 8 + payload_bytes;
    return true;
}

bool
SegmentSource::done()
{
    return pos_ >= block_.size() && !refill();
}

TraceRecord
SegmentSource::take()
{
    return block_[pos_++];
}

const TraceRecord *
SegmentSource::takeBlock(std::size_t &n)
{
    if (pos_ >= block_.size() && !refill()) {
        n = 0;
        return nullptr;
    }
    const TraceRecord *run = block_.data() + pos_;
    n = block_.size() - pos_;
    pos_ = block_.size();
    return run;
}

} // namespace rnr
