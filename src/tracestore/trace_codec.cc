#include "tracestore/trace_codec.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <memory>
#include <system_error>
#include <vector>

#include "sim/flat_map.h"
#include "tracestore/trace_writer.h"
#include "tracestore/varint.h"

namespace rnr {

namespace {

// Tag byte: bits 0-1 = RecordKind, bit 2 = aux field present.
constexpr std::uint8_t kKindMask = 0x03;
constexpr std::uint8_t kAuxFlag = 0x04;

template <typename T>
bool
get(std::istream &in, T &value)
{
    in.read(reinterpret_cast<char *>(&value), sizeof(value));
    return static_cast<bool>(in);
}

/**
 * Per-block delta context.  Addresses delta against the last address
 * seen *from the same pc* (each access site is its own stream); a site's
 * first record in a block deltas against the last memory address of any
 * site, which is usually in the same region.  Everything resets at
 * block boundaries so blocks decode independently.
 *
 * The workloads number their sites from 0, so pcs below kDirectSites
 * index an array of slots directly; other pcs (imported traces) go
 * through a hash table.  Both are stamped with the block's epoch, so a
 * reset is O(1).
 */
struct DeltaState {
    static constexpr std::uint32_t kDirectSites = 1024;

    struct DirectSlot {
        std::uint64_t last = 0;
        std::uint32_t epoch = 0; ///< Live iff equal to DeltaState::epoch.
    };

    std::uint32_t prev_pc = 0;
    std::uint64_t last_mem_addr = 0;
    std::uint32_t epoch = 1;
    std::vector<DirectSlot> direct = std::vector<DirectSlot>(kDirectSites);
    FlatMap<std::uint32_t, std::uint64_t> site_last;

    /** Sets @p base to the address @p pc's next record deltas against
     *  and returns pc's last-address slot, which the caller overwrites
     *  (one table probe per memory record). */
    std::uint64_t &
    site(std::uint32_t pc, std::uint64_t &base)
    {
        bool fresh = false;
        std::uint64_t *last;
        if (pc < kDirectSites) {
            DirectSlot &d = direct[pc];
            fresh = d.epoch != epoch;
            d.epoch = epoch;
            last = &d.last;
        } else {
            last = &site_last.emplace(pc, fresh);
        }
        base = fresh ? last_mem_addr : *last;
        return *last;
    }

    /** Forgets every site, for a new block. */
    void
    reset()
    {
        prev_pc = 0;
        last_mem_addr = 0;
        site_last.clear();
        if (++epoch == 0) { // wrapped: stale stamps could read as live
            for (DirectSlot &d : direct)
                d.epoch = 0;
            epoch = 1;
        }
    }
};

/** This thread's delta context, reset for a new block.  The pc tables
 *  are reused across blocks, so the hash table grows to the widest
 *  block's site count once and the per-block reset is O(1). */
DeltaState &
freshDeltaState()
{
    thread_local DeltaState st;
    st.reset();
    return st;
}

/** Appends the frame of the @p n records, less its first @p skip
 *  bytes, to @p out, through this thread's frame buffer (never
 *  zero-filled).  @p out grows in powers of two, as push_back grows it,
 *  so a segment reuses the chunks the previous one freed. */
void
appendFrame(const TraceRecord *recs, std::size_t n,
            std::vector<std::uint8_t> &out, std::size_t skip)
{
    thread_local std::unique_ptr<std::uint8_t[]> frame;
    thread_local std::size_t room = 0;
    if (room < 8 + n * kMaxEncodedRecordBytes) {
        room = 8 + n * kMaxEncodedRecordBytes;
        frame = std::make_unique_for_overwrite<std::uint8_t[]>(room);
    }
    BlockTally unused;
    const std::size_t len = encodeFramedBlock(recs, n, frame.get(), unused);
    out.reserve(std::bit_ceil(out.size() + len - skip));
    out.insert(out.end(), frame.get() + skip, frame.get() + len);
}

} // namespace

std::size_t
encodeFramedBlock(const TraceRecord *recs, std::size_t n, std::uint8_t *out,
                  BlockTally &tally)
{
    DeltaState &st = freshDeltaState();
    BlockTally t = tally; // a local: a byte store may alias anything
    std::uint8_t *p = out + 8;
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord r = recs[i];
        std::uint8_t tag = static_cast<std::uint8_t>(r.kind) & kKindMask;
        if (r.aux != 0)
            tag |= kAuxFlag;
        *p++ = tag;
        if (r.kind == RecordKind::Control)
            *p++ = static_cast<std::uint8_t>(r.ctrl);
        p = putVarint(p, r.gap);
        p = putVarint(p, zigzag(static_cast<std::int64_t>(r.pc) -
                                static_cast<std::int64_t>(st.prev_pc)));
        st.prev_pc = r.pc;
        t.gaps += r.gap;
        if (r.kind == RecordKind::Control) {
            // Control payloads are region bases/sizes, unrelated to the
            // access stream: store the address verbatim.
            p = putVarint(p, r.addr);
        } else {
            std::uint64_t base = 0;
            std::uint64_t &last = st.site(r.pc, base);
            p = putVarint(p, zigzag(static_cast<std::int64_t>(r.addr - base)));
            last = st.last_mem_addr = r.addr;
            t.loads += r.kind == RecordKind::Load;
            t.stores += r.kind == RecordKind::Store;
            t.min_addr = std::min(t.min_addr, r.addr);
            t.max_addr = std::max(t.max_addr, r.addr);
        }
        if (r.aux != 0)
            p = putVarint(p, r.aux);
    }
    tally = t;
    const std::uint32_t payload_bytes = static_cast<std::uint32_t>(p - out - 8);
    const std::uint32_t record_count = static_cast<std::uint32_t>(n);
    std::memcpy(out, &payload_bytes, 4);
    std::memcpy(out + 4, &record_count, 4);
    return static_cast<std::size_t>(p - out);
}

void
encodeFramedBlock(const TraceRecord *recs, std::size_t n,
                  std::vector<std::uint8_t> &out)
{
    appendFrame(recs, n, out, 0);
}

void
encodeBlock(const TraceRecord *recs, std::size_t n,
            std::vector<std::uint8_t> &out)
{
    appendFrame(recs, n, out, 8);
}

bool
decodeBlock(const std::uint8_t *payload, std::size_t payload_bytes,
            std::size_t expected_records, std::vector<TraceRecord> &out)
{
    const std::uint8_t *p = payload;
    const std::uint8_t *end = payload + payload_bytes;
    DeltaState &st = freshDeltaState();
    for (std::size_t i = 0; i < expected_records; ++i) {
        if (p == end)
            return false;
        const std::uint8_t tag = *p++;
        if ((tag & ~(kKindMask | kAuxFlag)) != 0)
            return false;
        const auto kind = static_cast<RecordKind>(tag & kKindMask);
        if (kind != RecordKind::Load && kind != RecordKind::Store &&
            kind != RecordKind::Control)
            return false;

        TraceRecord r;
        r.kind = kind;
        if (kind == RecordKind::Control) {
            if (p == end)
                return false;
            r.ctrl = static_cast<RnrOp>(*p++);
        }
        std::uint64_t v = 0;
        if (!getVarint(p, end, v) || v > 0xffffffffull)
            return false;
        r.gap = static_cast<std::uint32_t>(v);
        if (!getVarint(p, end, v))
            return false;
        r.pc = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(st.prev_pc) + unzigzag(v));
        st.prev_pc = r.pc;
        if (!getVarint(p, end, v))
            return false;
        if (kind == RecordKind::Control) {
            r.addr = v;
        } else {
            std::uint64_t base = 0;
            std::uint64_t &last = st.site(r.pc, base);
            r.addr = base + static_cast<std::uint64_t>(unzigzag(v));
            last = st.last_mem_addr = r.addr;
        }
        if (tag & kAuxFlag) {
            if (!getVarint(p, end, r.aux))
                return false;
        }
        out.push_back(r);
    }
    return p == end; // trailing garbage = corrupt
}

TraceIoResult
writeTraceFileV2(const std::string &path, const TraceBuffer &buf,
                 std::uint32_t block_records)
{
    TraceFileWriter w(block_records);
    if (TraceIoResult r = w.open(path); !r)
        return r;
    if (!buf.empty())
        w.write(buf.records().data(), buf.size());
    return w.close();
}

TraceIoResult
readV2FileHeader(std::istream &in, std::uint32_t &block_records)
{
    char magic[8];
    in.read(magic, sizeof(magic));
    if (!in)
        return TraceIoResult::fail(TraceIoStatus::Truncated,
                                   "file shorter than the 8-byte magic");
    if (std::memcmp(magic, kTraceFileMagic, sizeof(kTraceFileMagic)) != 0)
        return TraceIoResult::fail(TraceIoStatus::BadMagic,
                                   "expected RNRTRACE");
    std::uint32_t version = 0;
    if (!get(in, version))
        return TraceIoResult::fail(TraceIoStatus::Truncated,
                                   "missing version field");
    if (version != kTraceFormatVersionV2)
        return TraceIoResult::fail(TraceIoStatus::BadVersion,
                                   "version " + std::to_string(version));
    if (!get(in, block_records) || block_records == 0)
        return TraceIoResult::fail(TraceIoStatus::Truncated,
                                   "missing block size field");
    return TraceIoResult::ok();
}

TraceIoResult
readTraceFileV2Stats(const std::string &path, TraceFileStats &stats,
                     std::vector<TraceBlockIndexEntry> *index)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return TraceIoResult::fail(TraceIoStatus::OpenFailed, path, errno);
    std::uint32_t block_records = 0;
    if (TraceIoResult r = readV2FileHeader(in, block_records); !r)
        return r;

    in.seekg(0, std::ios::end);
    const std::int64_t file_size = in.tellg();
    constexpr std::int64_t kTrailer = 16; // footer_offset + footer magic
    if (file_size < kTrailer)
        return TraceIoResult::fail(TraceIoStatus::BadFooter,
                                   "file too short for a footer");
    in.seekg(file_size - kTrailer);
    std::uint64_t footer_offset = 0;
    char fmagic[8];
    if (!get(in, footer_offset) ||
        !in.read(fmagic, sizeof(fmagic)))
        return TraceIoResult::fail(TraceIoStatus::BadFooter,
                                   "cannot read footer trailer");
    if (std::memcmp(fmagic, kTraceFooterMagic, sizeof(kTraceFooterMagic)) != 0)
        return TraceIoResult::fail(TraceIoStatus::BadFooter,
                                   "footer magic missing (truncated "
                                   "write?)");
    if (footer_offset >= static_cast<std::uint64_t>(file_size))
        return TraceIoResult::fail(TraceIoStatus::BadFooter,
                                   "footer offset out of range");
    in.seekg(static_cast<std::streamoff>(footer_offset));
    std::uint64_t block_count = 0;
    if (!get(in, block_count))
        return TraceIoResult::fail(TraceIoStatus::BadFooter,
                                   "cannot read block count");
    // Each index entry takes 16 bytes; divide rather than multiply so a
    // crafted count cannot wrap past the check.
    if (block_count > static_cast<std::uint64_t>(file_size) / 16)
        return TraceIoResult::fail(TraceIoStatus::BadFooter,
                                   "implausible block count");
    std::vector<TraceBlockIndexEntry> idx(
        static_cast<std::size_t>(block_count));
    for (TraceBlockIndexEntry &e : idx) {
        if (!get(in, e.offset) || !get(in, e.payload_bytes) ||
            !get(in, e.record_count))
            return TraceIoResult::fail(TraceIoStatus::BadFooter,
                                       "cannot read block index");
    }
    TraceFileStats s;
    if (!get(in, s.records) || !get(in, s.loads) || !get(in, s.stores) ||
        !get(in, s.controls) || !get(in, s.instructions) ||
        !get(in, s.min_addr) || !get(in, s.max_addr) ||
        !get(in, s.raw_bytes))
        return TraceIoResult::fail(TraceIoStatus::BadFooter,
                                   "cannot read stats");
    std::uint64_t indexed_records = 0;
    for (const TraceBlockIndexEntry &e : idx)
        indexed_records += e.record_count;
    if (indexed_records != s.records)
        return TraceIoResult::fail(
            TraceIoStatus::BadFooter,
            "index covers " + std::to_string(indexed_records) +
                " records, stats claim " + std::to_string(s.records));
    stats = s;
    if (index)
        *index = std::move(idx);
    return TraceIoResult::ok();
}

std::uint64_t
traceFileSizeBytes(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

} // namespace rnr
