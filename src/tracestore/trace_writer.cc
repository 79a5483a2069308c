#include "tracestore/trace_writer.h"

#include <algorithm>
#include <cerrno>

namespace rnr {

TraceFileWriter::TraceFileWriter(std::uint32_t block_records)
    : block_records_(block_records != 0 ? block_records
                                        : kDefaultBlockRecords),
      frame_(std::make_unique_for_overwrite<std::uint8_t[]>(
          8 + std::size_t{block_records_} * kMaxEncodedRecordBytes))
{
}

TraceIoResult
TraceFileWriter::open(const std::string &path)
{
    path_ = path;
    file_.reset(std::fopen(path.c_str(), "wb"));
    if (!file_)
        return status_ =
                   TraceIoResult::fail(TraceIoStatus::OpenFailed, path, errno);
    begin();
    return status_;
}

void
TraceFileWriter::openDiscard()
{
    discard_ = true;
    begin();
}

void
TraceFileWriter::begin()
{
    put(kTraceFileMagic, sizeof(kTraceFileMagic));
    putValue<std::uint32_t>(kTraceFormatVersionV2);
    putValue<std::uint32_t>(block_records_);
}

void
TraceFileWriter::put(const void *data, std::size_t n)
{
    if (!status_)
        return;
    if (!discard_ &&
        (!file_ || std::fwrite(data, 1, n, file_.get()) != n)) {
        status_ =
            TraceIoResult::fail(TraceIoStatus::WriteFailed, path_, errno);
        return;
    }
    bytes_ += n;
}

void
TraceFileWriter::write(const TraceRecord *recs, std::size_t n)
{
    for (std::size_t first = 0; first < n; first += block_records_)
        writeBlock(recs + first,
                   std::min<std::size_t>(block_records_, n - first));
}

void
TraceFileWriter::writeBlock(const TraceRecord *recs, std::size_t n)
{
    const std::size_t len = encodeFramedBlock(recs, n, frame_.get(), tally_);
    TraceBlockIndexEntry e;
    e.offset = bytes_;
    e.payload_bytes = static_cast<std::uint32_t>(len - 8);
    e.record_count = static_cast<std::uint32_t>(n);
    index_.push_back(e);
    put(frame_.get(), len);

    const std::uint64_t mem = tally_.loads + tally_.stores;
    stats_.records += n;
    stats_.loads = tally_.loads;
    stats_.stores = tally_.stores;
    stats_.controls = stats_.records - mem;
    stats_.instructions = tally_.gaps + mem;
    stats_.raw_bytes = stats_.records * sizeof(TraceRecord);
    if (mem != 0) { // else the footer's address span stays 0
        stats_.min_addr = tally_.min_addr;
        stats_.max_addr = tally_.max_addr;
    }
}

TraceIoResult
TraceFileWriter::close()
{
    // Terminator lets a sequential reader stop without the footer.
    putValue<std::uint32_t>(0);
    putValue<std::uint32_t>(0);

    const std::uint64_t footer_offset = bytes_;
    putValue<std::uint64_t>(index_.size());
    for (const TraceBlockIndexEntry &e : index_) {
        putValue<std::uint64_t>(e.offset);
        putValue<std::uint32_t>(e.payload_bytes);
        putValue<std::uint32_t>(e.record_count);
    }
    putValue<std::uint64_t>(stats_.records);
    putValue<std::uint64_t>(stats_.loads);
    putValue<std::uint64_t>(stats_.stores);
    putValue<std::uint64_t>(stats_.controls);
    putValue<std::uint64_t>(stats_.instructions);
    putValue<std::uint64_t>(stats_.min_addr);
    putValue<std::uint64_t>(stats_.max_addr);
    putValue<std::uint64_t>(stats_.raw_bytes);
    putValue<std::uint64_t>(footer_offset);
    put(kTraceFooterMagic, sizeof(kTraceFooterMagic));

    if (file_) {
        const bool flushed = std::fflush(file_.get()) == 0;
        const int err = errno;
        const bool closed = std::fclose(file_.release()) == 0;
        if (status_ && (!flushed || !closed))
            status_ = TraceIoResult::fail(TraceIoStatus::WriteFailed, path_,
                                          flushed ? errno : err);
    }
    return status_;
}

} // namespace rnr
