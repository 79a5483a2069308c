#include "tracestore/trace_segment.h"

#include <algorithm>
#include <cstring>

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

SegmentSource::SegmentSource(std::vector<std::uint8_t> bytes)
    : FramedBlockSource("segment", kDefaultBlockRecords),
      bytes_(std::move(bytes))
{
    where_ = "in-memory segment";
}

bool
SegmentSource::nextFrame(Frame &f)
{
    const std::size_t left = bytes_.size() - offset_;
    if (left == 0)
        return false;
    if (left < 8)
        return fail(TraceIoStatus::Truncated, "block header ended early");
    std::memcpy(&f.payload_bytes, bytes_.data() + offset_, 4);
    std::memcpy(&f.record_count, bytes_.data() + offset_ + 4, 4);
    offset_ += 8;
    f.bytes_left = left - 8;
    return true;
}

const std::uint8_t *
SegmentSource::payload(std::uint32_t payload_bytes)
{
    const std::uint8_t *p = bytes_.data() + offset_;
    offset_ += payload_bytes;
    return p;
}

} // namespace rnr
