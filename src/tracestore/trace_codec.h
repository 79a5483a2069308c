/**
 * @file
 * v2 trace codec: per-field delta + varint encoding in fixed-size
 * indexed blocks, with a stats footer.
 *
 * The format stores each record in a handful of bytes instead of a
 * TraceRecord's 32, because its fields are almost entirely redundant:
 * successive records from one access site stride by one element,
 * instruction gaps are tiny, and aux is zero outside control records.
 * It exploits all three:
 *
 *  - addresses are delta-encoded *per access site* (keyed by the
 *    record's pc), so each of the workload's interleaved streams
 *    (offsets, edges, values...) compresses against itself rather than
 *    against whichever stream happened to emit last;
 *  - pc and gap are varint-encoded (pc as a delta, gap raw);
 *  - aux costs one tag bit unless nonzero.
 *
 * Records are packed into blocks of a fixed record count; all delta
 * state resets at block boundaries, so any block decodes independently
 * (this is what lets tracestore/trace_reader.h stream a file with one
 * decoded block resident).  A footer carries a per-block index plus
 * per-kind record counts, so `trace_tools stats` and the store's
 * corpus report summarise a file without decoding any payload.
 *
 * A framed block (u32 payload_bytes | u32 record_count | payload) is
 * the unit of both a file's body and a store-off cell's in-memory
 * segment (tracestore/trace_segment.h); FramedBlockSource
 * (tracestore/trace_reader.h) is the one decoder of either.
 *
 * File layout (little-endian):
 *   8B magic "RNRTRACE" | u32 version=2 | u32 block_records
 *   per block:  u32 payload_bytes | u32 record_count | payload
 *   terminator: u32 0 | u32 0
 *   footer:     u64 block_count
 *               per block: u64 offset | u32 payload_bytes | u32 records
 *               TraceFileStats (8 x u64)
 *               u64 footer_offset | 8B footer magic "RNRTFTR1"
 */
#ifndef RNR_TRACESTORE_TRACE_CODEC_H
#define RNR_TRACESTORE_TRACE_CODEC_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace_buffer.h"
#include "trace/trace_io.h"

namespace rnr {

/** Version tag of the compressed block format. */
constexpr std::uint32_t kTraceFormatVersionV2 = 2;

/** Last 8 bytes of a complete v2 file. */
constexpr char kTraceFooterMagic[8] = {'R', 'N', 'R', 'T',
                                       'F', 'T', 'R', '1'};

/** Fewest bytes a record encodes to: the tag, gap, pc delta and
 *  address each take at least one.  file bytes / this bounds the record
 *  count of any trace file whatever its footer claims. */
constexpr std::uint64_t kMinEncodedRecordBytes = 4;

/** Most bytes a record encodes to: a control record's tag, ctrl byte,
 *  5-byte gap and pc delta and 10-byte address and aux (a memory record
 *  has no ctrl byte).  So n records frame into at most 8 + n * this. */
constexpr std::size_t kMaxEncodedRecordBytes = 32;
static_assert(kMaxEncodedRecordBytes == sizeof(TraceRecord));

/** Per-kind summary carried by the v2 footer (decode-free). */
struct TraceFileStats {
    std::uint64_t records = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t controls = 0;
    std::uint64_t instructions = 0; ///< Memory ops + gaps (TraceBuffer).
    std::uint64_t min_addr = 0;     ///< Over load/store records; 0 if none.
    std::uint64_t max_addr = 0;
    std::uint64_t raw_bytes = 0;    ///< records * sizeof(TraceRecord).
};

/** One footer index entry: where a block lives and what it holds. */
struct TraceBlockIndexEntry {
    std::uint64_t offset = 0; ///< File offset of the block header.
    std::uint32_t payload_bytes = 0;
    std::uint32_t record_count = 0;
};

/** What the footer counts, tallied by the encoder as it goes. */
struct BlockTally {
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t gaps = 0;   ///< Over every record.
    Addr min_addr = ~Addr{0}; ///< Over load/store records.
    Addr max_addr = 0;
};

/** Writes the framed block a v2 file or segment is made of at @p out,
 *  which must have room for 8 + n * kMaxEncodedRecordBytes bytes: u32
 *  payload_bytes, u32 record_count, then the @p n records' payload,
 *  whose delta state starts fresh.  Adds the records to @p tally and
 *  returns the frame's length. */
std::size_t encodeFramedBlock(const TraceRecord *recs, std::size_t n,
                              std::uint8_t *out, BlockTally &tally);

/** Appends encodeFramedBlock() of the @p n records to @p out. */
void encodeFramedBlock(const TraceRecord *recs, std::size_t n,
                       std::vector<std::uint8_t> &out);

/** Appends the @p n records' payload (the frame less its header). */
void encodeBlock(const TraceRecord *recs, std::size_t n,
                 std::vector<std::uint8_t> &out);

/**
 * Decodes a block payload of exactly @p expected_records records into
 * @p out (appended).  Returns false if the payload is malformed or its
 * length disagrees with the record count.
 */
bool decodeBlock(const std::uint8_t *payload, std::size_t payload_bytes,
                 std::size_t expected_records,
                 std::vector<TraceRecord> &out);

/** Writes @p buf to @p path in v2 format (a TraceFileWriter fed the
 *  whole buffer, tracestore/trace_writer.h). */
TraceIoResult writeTraceFileV2(
    const std::string &path, const TraceBuffer &buf,
    std::uint32_t block_records = kDefaultBlockRecords);

/**
 * Reads only the v2 footer of @p path: stats and (optionally) the
 * block index, without touching any payload.
 */
TraceIoResult readTraceFileV2Stats(
    const std::string &path, TraceFileStats &stats,
    std::vector<TraceBlockIndexEntry> *index = nullptr);

/**
 * Validates the leading magic + version of an open stream positioned
 * at 0 and leaves it positioned after the header.  On success fills
 * @p block_records.  The one header parser: the stats reader and
 * StreamingTraceReader::open() both call it.
 */
TraceIoResult readV2FileHeader(std::istream &in,
                               std::uint32_t &block_records);

/** Bytes @p path occupies on disk; 0 when it cannot be stat'ed. */
std::uint64_t traceFileSizeBytes(const std::string &path);

} // namespace rnr

#endif // RNR_TRACESTORE_TRACE_CODEC_H
