/**
 * @file
 * v2 codec tests: randomized round-trips (including control markers and
 * pathological address deltas), block-boundary sizes, the decode-free
 * stats footer, corruption/truncation reporting (a retired version-1
 * file included), crafted footers, the tracefile workload's ingest
 * sized from the footer, and the per-core streams it replays from.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/serde.h"
#include "sim/rng.h"
#include "test_util.h"
#include "trace/trace_io.h"
#include "tracestore/trace_codec.h"
#include "tracestore/trace_reader.h"
#include "tracestore/trace_segment.h"
#include "workloads/trace_replay.h"

namespace rnr {
namespace {

std::string
tmpPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** Deterministic pseudo-random trace mixing all record kinds. */
TraceBuffer
fuzzTrace(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    TraceBuffer buf;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t pick = rng.below(100);
        if (pick < 4) {
            // Control markers, including payloads using the full range.
            TraceRecord r = TraceRecord::control(
                static_cast<RnrOp>(rng.below(11)), rng.next64(),
                rng.next64());
            r.gap = static_cast<std::uint32_t>(rng.below(64));
            buf.push(r);
            continue;
        }
        // A handful of access sites with different behaviours:
        // sequential, strided, random, and a site that oscillates
        // between address-space extremes (pathological deltas).
        const std::uint32_t site =
            static_cast<std::uint32_t>(rng.below(6));
        Addr addr = 0;
        switch (site) {
          case 0: addr = 0x10000000 + i * 8; break;
          case 1: addr = 0x20000000 + i * 4096; break;
          case 2: addr = rng.next64(); break;
          case 3: addr = (i & 1) ? 0xffffffffffffffffull : 0; break;
          case 4: addr = 0x30000000 - i * 16; break; // descending
          default: addr = 0x40000000 + rng.below(1 << 20); break;
        }
        const std::uint32_t gap =
            static_cast<std::uint32_t>(rng.below(32));
        buf.push(pick < 60 ? TraceRecord::load(addr, site, gap)
                           : TraceRecord::store(addr, site, gap));
    }
    return buf;
}

void
expectSameRecords(const TraceBuffer &a, const TraceBuffer &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const TraceRecord &x = a.records()[i];
        const TraceRecord &y = b.records()[i];
        ASSERT_EQ(x.addr, y.addr) << "record " << i;
        ASSERT_EQ(x.aux, y.aux) << "record " << i;
        ASSERT_EQ(x.pc, y.pc) << "record " << i;
        ASSERT_EQ(x.gap, y.gap) << "record " << i;
        ASSERT_EQ(x.kind, y.kind) << "record " << i;
        if (x.kind == RecordKind::Control) {
            ASSERT_EQ(x.ctrl, y.ctrl) << "record " << i;
        }
    }
}

TEST(TraceCodec, BlockRoundTripsRandomStreams)
{
    for (std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
        const TraceBuffer buf = fuzzTrace(seed, 3000);
        std::vector<std::uint8_t> payload;
        encodeBlock(buf.records().data(), buf.size(), payload);
        std::vector<TraceRecord> out;
        ASSERT_TRUE(decodeBlock(payload.data(), payload.size(),
                                buf.size(), out));
        TraceBuffer round;
        for (const TraceRecord &r : out)
            round.push(r);
        expectSameRecords(buf, round);
    }
}

TEST(TraceCodec, FileRoundTripsAcrossBlockBoundaries)
{
    // Exactly at, one under and one over a block boundary, plus empty
    // and tiny traces.
    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          std::size_t{4095}, std::size_t{4096},
                          std::size_t{4097}, std::size_t{10000}}) {
        const std::string path =
            tmpPath("codec_rt_" + std::to_string(n) + ".rnrt");
        const TraceBuffer buf = fuzzTrace(7 + n, n);
        ASSERT_TRUE(writeTraceFileV2(path, buf));
        TraceBuffer out;
        ASSERT_TRUE(test::readTraceFile(path, out)) << "n=" << n;
        expectSameRecords(buf, out);
        std::remove(path.c_str());
    }
}

TEST(TraceCodec, SmallBlockSizesDecodeIndependently)
{
    const std::string path = tmpPath("codec_small_blocks.rnrt");
    const TraceBuffer buf = fuzzTrace(99, 1000);
    ASSERT_TRUE(writeTraceFileV2(path, buf, 17)); // awkward block size
    TraceBuffer out;
    ASSERT_TRUE(test::readTraceFile(path, out));
    expectSameRecords(buf, out);
    std::remove(path.c_str());
}

TEST(TraceCodec, StatsFooterMatchesWithoutDecoding)
{
    const std::string path = tmpPath("codec_stats.rnrt");
    const TraceBuffer buf = fuzzTrace(5, 9000);
    ASSERT_TRUE(writeTraceFileV2(path, buf));

    TraceFileStats stats;
    std::vector<TraceBlockIndexEntry> index;
    ASSERT_TRUE(readTraceFileV2Stats(path, stats, &index));
    EXPECT_EQ(stats.records, buf.size());
    EXPECT_EQ(stats.loads, buf.loads());
    EXPECT_EQ(stats.stores, buf.stores());
    EXPECT_EQ(stats.controls, buf.controls());
    EXPECT_EQ(stats.instructions, buf.instructions());
    EXPECT_EQ(stats.raw_bytes, buf.memoryBytes());
    EXPECT_EQ(index.size(), (buf.size() + 4095) / 4096);

    std::uint64_t indexed = 0;
    for (const auto &e : index)
        indexed += e.record_count;
    EXPECT_EQ(indexed, buf.size());

    // The footer's address span covers every memory record.
    Addr lo = ~Addr{0}, hi = 0;
    for (const TraceRecord &r : buf.records())
        if (r.kind != RecordKind::Control) {
            lo = std::min(lo, r.addr);
            hi = std::max(hi, r.addr);
        }
    EXPECT_EQ(stats.min_addr, lo);
    EXPECT_EQ(stats.max_addr, hi);
    std::remove(path.c_str());
}

TEST(TraceCodec, CompressesSequentialTracesAtLeast3x)
{
    // The acceptance bar: workload-shaped traces (a few interleaved
    // streams, small gaps) must compress >= 3x against the retired
    // uncompressed format: a 24-byte header and 28 bytes a record.
    TraceBuffer buf;
    for (std::size_t i = 0; i < 50000; ++i) {
        buf.push(TraceRecord::load(0x10000000 + i * 4, 1, 3));
        buf.push(TraceRecord::load(0x20000000 + i * 8, 2, 1));
        buf.push(TraceRecord::load(
            0x30000000 + (i * 2654435761ull & 0xfffff), 3, 2));
        buf.push(TraceRecord::store(0x40000000 + i * 8, 4, 0));
    }
    const std::string v2 = tmpPath("codec_ratio_v2.rnrt");
    ASSERT_TRUE(writeTraceFileV2(v2, buf));
    const std::uint64_t v1_bytes = 24 + 28 * std::uint64_t{buf.size()};
    const std::uint64_t v2_bytes = traceFileSizeBytes(v2);
    ASSERT_GT(v2_bytes, 0u);
    EXPECT_GE(v1_bytes, 3 * v2_bytes)
        << "v1=" << v1_bytes << " v2=" << v2_bytes;
    std::remove(v2.c_str());
}

TEST(TraceCodec, ReadersReportWhyAFileIsBad)
{
    const std::string path = tmpPath("codec_bad.rnrt");

    { // Not a trace file at all.
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "definitely not a trace";
    }
    TraceBuffer buf;
    TraceIoResult r = test::readTraceFile(path, buf);
    EXPECT_EQ(r.status, TraceIoStatus::BadMagic);
    EXPECT_NE(r.message().find("bad magic"), std::string::npos)
        << r.message();

    { // Good magic, unknown version.
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write("RNRTRACE", 8);
        const std::uint32_t version = 99, extra = 0;
        out.write(reinterpret_cast<const char *>(&version), 4);
        out.write(reinterpret_cast<const char *>(&extra), 4);
    }
    r = test::readTraceFile(path, buf);
    EXPECT_EQ(r.status, TraceIoStatus::BadVersion);
    EXPECT_NE(r.message().find("99"), std::string::npos) << r.message();

    { // A header of the retired uncompressed version 1: u32 reserved,
      // u64 record count, then one 28-byte record.
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write("RNRTRACE", 8);
        const std::uint32_t version = 1, reserved = 0;
        const std::uint64_t records = 1;
        out.write(reinterpret_cast<const char *>(&version), 4);
        out.write(reinterpret_cast<const char *>(&reserved), 4);
        out.write(reinterpret_cast<const char *>(&records), 8);
        out.write(std::string(28, '\0').data(), 28);
    }
    StreamingTraceReader reader;
    r = reader.open(path);
    EXPECT_EQ(r.status, TraceIoStatus::BadVersion);
    EXPECT_EQ(r.detail, "version 1");
    TraceFileStats v1_stats;
    r = readTraceFileV2Stats(path, v1_stats);
    EXPECT_EQ(r.status, TraceIoStatus::BadVersion);
    EXPECT_EQ(r.detail, "version 1");

    // Truncated v2 payload: write a valid file then chop its tail.
    const TraceBuffer full = fuzzTrace(3, 6000);
    ASSERT_TRUE(writeTraceFileV2(path, full));
    const std::uint64_t size = traceFileSizeBytes(path);
    std::filesystem::resize_file(path, size / 2);
    buf.clear();
    r = test::readTraceFile(path, buf);
    EXPECT_FALSE(r);
    EXPECT_TRUE(r.status == TraceIoStatus::Truncated ||
                r.status == TraceIoStatus::CorruptBlock)
        << toString(r.status);

    // The footer reader notices the truncation too.
    TraceFileStats stats;
    r = readTraceFileV2Stats(path, stats);
    EXPECT_FALSE(r);

    // Missing file: errno-carrying open failure.
    std::remove(path.c_str());
    r = test::readTraceFile(path, buf);
    EXPECT_EQ(r.status, TraceIoStatus::OpenFailed);
    EXPECT_NE(r.sys_errno, 0);
}

TEST(TraceCodec, CorruptPayloadIsDetectedOrHarmless)
{
    const std::string path = tmpPath("codec_corrupt.rnrt");
    const TraceBuffer buf = fuzzTrace(21, 5000);
    ASSERT_TRUE(writeTraceFileV2(path, buf));

    // Flip a byte in the middle of the first block's payload.
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(16 + 8 + 40); // header + block header + into payload
        char c = 0;
        f.read(&c, 1);
        f.seekp(16 + 8 + 40);
        c = static_cast<char>(c ^ 0x5a);
        f.write(&c, 1);
    }
    TraceBuffer out;
    const TraceIoResult r = test::readTraceFile(path, out);
    // A flipped byte either breaks the varint structure (caught) or
    // alters decoded values; structure corruption must never crash.
    if (!r) {
        EXPECT_TRUE(r.status == TraceIoStatus::CorruptBlock ||
                    r.status == TraceIoStatus::Truncated)
            << toString(r.status);
    }
    std::remove(path.c_str());
}

TEST(TraceCodec, StreamingReaderDeliversBlockByBlock)
{
    const std::string path = tmpPath("codec_stream.rnrt");
    const TraceBuffer buf = fuzzTrace(31, 12345);
    ASSERT_TRUE(writeTraceFileV2(path, buf, 256));

    StreamingTraceReader reader;
    ASSERT_TRUE(reader.open(path));
    std::size_t n = 0;
    while (!reader.done()) {
        const TraceRecord r = reader.take();
        ASSERT_EQ(r.addr, buf.records()[n].addr) << "record " << n;
        ++n;
    }
    EXPECT_EQ(n, buf.size());
    EXPECT_FALSE(reader.error());
    std::remove(path.c_str());
}

/** Overwrites sizeof(T) bytes of @p path at @p offset. */
template <typename T>
void
patchFile(const std::string &path, std::uint64_t offset, T value)
{
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char *>(&value), sizeof(value));
    ASSERT_TRUE(f.good());
}

template <typename T>
T
peekFile(const std::string &path, std::uint64_t offset)
{
    std::ifstream f(path, std::ios::binary);
    f.seekg(static_cast<std::streamoff>(offset));
    T value{};
    f.read(reinterpret_cast<char *>(&value), sizeof(value));
    return value;
}

/** File offset of the v2 footer (its u64 block count). */
std::uint64_t
footerOffset(const std::string &path)
{
    return peekFile<std::uint64_t>(path, traceFileSizeBytes(path) - 16);
}

TEST(TraceCodec, HugeFooterBlockCountFailsTypedWithoutThrowing)
{
    const std::string path = tmpPath("codec_huge_blocks.rnrt");
    ASSERT_TRUE(writeTraceFileV2(path, fuzzTrace(41, 5000)));
    const std::uint64_t footer = footerOffset(path);
    // 2^60 x 16 wraps to 0 and 2^60 + 1 to 16 in 64 bits, which a
    // multiplied plausibility check would accept.
    for (std::uint64_t count :
         {std::uint64_t{1} << 60, (std::uint64_t{1} << 60) + 1,
          ~std::uint64_t{0}}) {
        patchFile(path, footer, count);
        TraceFileStats stats;
        TraceIoResult r;
        EXPECT_NO_THROW(r = readTraceFileV2Stats(path, stats)) << count;
        EXPECT_EQ(r.status, TraceIoStatus::BadFooter) << count;
    }
    std::remove(path.c_str());
}

TEST(TraceCodec, LyingFooterRecordCountCannotInflateTheIngestReserve)
{
    const std::string path = tmpPath("codec_lying_footer.rnrt");
    const TraceBuffer trace = fuzzTrace(43, 10000);
    ASSERT_TRUE(writeTraceFileV2(path, trace));
    const std::uint64_t file_bytes = traceFileSizeBytes(path);

    // Claim ~2^32 records more than the file holds, keeping the index
    // and the stats consistent so the footer reader accepts the lie.
    const std::uint64_t footer = footerOffset(path);
    const std::uint64_t blocks = peekFile<std::uint64_t>(path, footer);
    const std::uint64_t claimed = trace.size() - 4096 + 0xffffffffull;
    patchFile(path, footer + 8 + 12, std::uint32_t{0xffffffff});
    patchFile(path, footer + 8 + 16 * blocks, claimed);
    TraceFileStats stats;
    ASSERT_TRUE(readTraceFileV2Stats(path, stats));
    ASSERT_EQ(stats.records, claimed);

    // The block headers still tell the truth: a valid parse, with the
    // buffer reserved from the file's size instead of the footer.
    WorkloadOptions opts;
    opts.cores = 1;
    TraceFileWorkload wl(path, opts);
    std::vector<TraceBuffer> bufs(1);
    ASSERT_NO_THROW(wl.emitIteration(0, /*is_last=*/true, bufs));
    EXPECT_EQ(bufs[0].size(), trace.size() + 7); // + init ... RnR.end
    EXPECT_LE(bufs[0].capacity(), file_bytes / kMinEncodedRecordBytes + 8);

    // A block header that lies as well is a typed decode error.
    patchFile(path, 16 + 4, std::uint32_t{0xffffffff});
    TraceBuffer buf;
    const TraceIoResult r = test::readTraceFile(path, buf);
    EXPECT_EQ(r.status, TraceIoStatus::CorruptBlock) << r.message();
    EXPECT_THROW(wl.emitIteration(1, true, bufs), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceCodec, EncodedBytesAreUnchanged)
{
    // FNV-1a digests of encodeBlock output as first committed.  Stored
    // traces are decoded with today's decoder, so any change here
    // orphans every trace store on disk.
    auto digest = [](const TraceBuffer &buf) {
        std::vector<std::uint8_t> payload;
        encodeBlock(buf.records().data(), buf.size(), payload);
        return ckpt::fnv1a64(payload.data(), payload.size());
    };
    EXPECT_EQ(digest(fuzzTrace(1, 3000)), 0xbf63bf6582b009aeull);

    // One block with 4096 distinct access sites, each seen twice.
    TraceBuffer wide;
    for (std::uint32_t i = 0; i < 8192; ++i) {
        const std::uint32_t site = (i % 4096) * 2654435761u;
        wide.push(TraceRecord::load(0x10000000 + i * 72, site, i % 5));
    }
    EXPECT_EQ(digest(wide), 0x7094610658db1070ull);

    // Sites on both sides of the codec's directly indexed pc range
    // (below 1024) and far above it, interleaved in one block.
    TraceBuffer mixed;
    const std::uint32_t sites[] = {0,     1023, 1024,       5,
                                   70000, 1023, 4000000000u};
    for (std::uint32_t i = 0; i < 4000; ++i) {
        const std::uint32_t site = sites[i % 7];
        mixed.push(TraceRecord::store(0x50000000 + (i % 13) * 4160 +
                                          i * 8,
                                      site, i % 3));
    }
    EXPECT_EQ(digest(mixed), 0xf5a319b22ce9e278ull);
    std::vector<std::uint8_t> payload;
    encodeBlock(wide.records().data(), wide.size(), payload);
    std::vector<TraceRecord> back;
    ASSERT_TRUE(decodeBlock(payload.data(), payload.size(), wide.size(),
                            back));
    for (std::size_t i = 0; i < back.size(); ++i)
        ASSERT_EQ(back[i].addr, wide.records()[i].addr) << i;
}

/** A block of records that each encode to as many bytes as their kind
 *  allows: every control op with a full gap, address and aux, and loads
 *  with a full gap and aux.  Kinds come as control, load, load, control
 *  and the pc swings between 0 and 0xffffffff on every record, so every
 *  pc delta takes 5 bytes and each kind sees both pcs; load addresses
 *  cycle through 0, ~0 and 1 << 63, whose deltas take up to 10. */
std::vector<TraceRecord>
worstCaseBlock(std::size_t n)
{
    constexpr unsigned kOps = static_cast<unsigned>(RnrOp::Free) + 1;
    const Addr addrs[] = {0, ~0ull, 1ull << 63};
    std::vector<TraceRecord> recs;
    for (std::size_t i = 0, ops = 0, loads = 0; i < n; ++i) {
        TraceRecord r;
        if (i % 4 == 0 || i % 4 == 3) {
            r = TraceRecord::control(static_cast<RnrOp>(ops++ % kOps),
                                     ~0ull, ~0ull);
        } else {
            r = TraceRecord::load(addrs[loads++ % 3], 0, 0);
            r.aux = ~0ull;
        }
        r.pc = i % 2 == 0 ? 0xffffffffu : 0; // prev pc starts at 0
        r.gap = 0xffffffffu;
        recs.push_back(r);
    }
    return recs;
}

TEST(TraceCodec, WorstCaseRecordsFitTheEncoderBound)
{
    const std::size_t n = kDefaultBlockRecords;
    const std::vector<TraceRecord> recs = worstCaseBlock(n);

    // Exactly the encoder's bound, so a write past it is a heap overflow
    // under ASan.
    std::vector<std::uint8_t> frame(8 + n * kMaxEncodedRecordBytes);
    BlockTally tally;
    const std::size_t len =
        encodeFramedBlock(recs.data(), n, frame.data(), tally);
    ASSERT_LE(len, frame.size());
    EXPECT_EQ(tally.loads, n / 2);
    EXPECT_EQ(tally.min_addr, 0u);
    EXPECT_EQ(tally.max_addr, ~0ull);

    // A record's bytes follow from the records before it, so a prefix
    // of the block encodes to a prefix of its payload and each record's
    // size is the difference of two prefixes.
    std::vector<std::uint8_t> prefix(8 + n * kMaxEncodedRecordBytes);
    std::size_t before = 8, longest_load = 0;
    for (std::size_t k = 1; k <= n; ++k) {
        const std::size_t at =
            encodeFramedBlock(recs.data(), k, prefix.data(), tally);
        const std::size_t bytes = at - before;
        before = at;
        ASSERT_LE(bytes, kMaxEncodedRecordBytes) << "record " << k - 1;
        if (recs[k - 1].kind == RecordKind::Control)
            ASSERT_EQ(bytes, kMaxEncodedRecordBytes) << "record " << k - 1;
        else
            longest_load = std::max(longest_load, bytes);
    }
    EXPECT_EQ(before, len);
    EXPECT_EQ(longest_load, kMaxEncodedRecordBytes - 1); // no ctrl byte

    std::vector<TraceRecord> back;
    ASSERT_TRUE(decodeBlock(frame.data() + 8, len - 8, n, back));
    TraceBuffer want, got;
    for (std::size_t i = 0; i < n; ++i) {
        want.push(recs[i]);
        got.push(back[i]);
    }
    expectSameRecords(want, got);
}

TEST(TraceCodec, FramedBlocksAppendToANonEmptySegment)
{
    // A store-off segment grows one encodeFramedBlock() at a time; each
    // append must equal that block framed on its own.
    const TraceBuffer buf = fuzzTrace(11, 3 * kDefaultBlockRecords + 100);
    const TraceRecord *recs = buf.records().data();
    std::vector<std::uint8_t> segment = {0xab};
    std::vector<std::uint8_t> expected = {0xab};
    for (std::size_t first = 0; first < buf.size();
         first += kDefaultBlockRecords) {
        const std::size_t n =
            std::min<std::size_t>(kDefaultBlockRecords, buf.size() - first);
        encodeFramedBlock(recs + first, n, segment);

        std::vector<std::uint8_t> alone(8 + n * kMaxEncodedRecordBytes);
        BlockTally tally;
        alone.resize(
            encodeFramedBlock(recs + first, n, alone.data(), tally));
        std::vector<std::uint8_t> payload;
        encodeBlock(recs + first, n, payload);
        ASSERT_EQ(alone.size(), payload.size() + 8);
        ASSERT_TRUE(
            std::equal(payload.begin(), payload.end(), alone.begin() + 8));
        expected.insert(expected.end(), alone.begin(), alone.end());
    }
    EXPECT_EQ(segment, expected);

    SegmentSink sink;
    sink.write(recs, buf.size());
    EXPECT_TRUE(std::equal(expected.begin() + 1, expected.end(),
                           sink.release().begin()));
}

/** The file's records read one take() at a time: the reference the
 *  block-at-a-time ingest must match. */
TraceIoResult
perRecordIngest(const std::string &path, TraceBuffer &buf)
{
    StreamingTraceReader reader;
    if (TraceIoResult r = reader.open(path); !r)
        return r;
    while (!reader.done())
        buf.push(reader.take());
    return reader.error() ? reader.errorResult() : TraceIoResult::ok();
}

TEST(TraceIngest, BulkIngestMatchesThePerRecordLoop)
{
    // The tracefile workload's emitIteration(.., bufs) hands the buffer
    // each decoded block in one write(), between the control records
    // it injects: init, AddrBase.set, enable and start before the
    // file, disable, end-state and RnR.end after it.
    const std::string path = tmpPath("ingest_bulk.rnrt");
    WorkloadOptions opts;
    opts.cores = 1;
    for (std::uint32_t block : {17u, kDefaultBlockRecords}) {
        for (std::size_t n : {std::size_t{100}, std::size_t{4096},
                              std::size_t{10001}}) {
            SCOPED_TRACE(::testing::Message()
                         << "block=" << block << " n=" << n);
            ASSERT_TRUE(
                writeTraceFileV2(path, fuzzTrace(n + block, n), block));
            TraceFileWorkload wl(path, opts);
            std::vector<TraceBuffer> bufs(1);
            wl.emitIteration(0, /*is_last=*/true, bufs);
            const TraceBuffer &bulk = bufs[0];
            ASSERT_EQ(bulk.size(), n + 7);

            TraceBuffer loop;
            for (std::size_t i = 0; i < 4; ++i)
                loop.push(bulk.records()[i]);
            ASSERT_TRUE(perRecordIngest(path, loop));
            for (std::size_t i = n + 4; i < n + 7; ++i)
                loop.push(bulk.records()[i]);
            expectSameRecords(loop, bulk);
            EXPECT_EQ(bulk.loads(), loop.loads());
            EXPECT_EQ(bulk.stores(), loop.stores());
            EXPECT_EQ(bulk.controls(), loop.controls());
            EXPECT_EQ(bulk.instructions(), loop.instructions());
        }
    }
    std::remove(path.c_str());
}

TEST(TraceIngest, TracefileBufferIsSizedOnceFromTheFooter)
{
    const std::string path = tmpPath("ingest_sized.rnrt");
    const TraceBuffer trace = fuzzTrace(47, 30000);
    ASSERT_TRUE(writeTraceFileV2(path, trace));

    WorkloadOptions opts;
    opts.cores = 1;
    opts.window_size = 64; // the most control records an iteration adds
    TraceFileWorkload wl(path, opts);
    std::vector<TraceBuffer> bufs(1);
    wl.emitIteration(0, /*is_last=*/true, bufs);
    // Records plus the 8 control records around them, in one
    // allocation: no doubling left capacity behind.
    EXPECT_EQ(bufs[0].size(), trace.size() + 8);
    EXPECT_LE(bufs[0].capacity(), trace.size() + 8);
    std::remove(path.c_str());
}

/** Drains @p s by take(), or by takeBlock() runs when @p by_block. */
TraceBuffer
drain(TraceSource &s, bool by_block)
{
    TraceBuffer out;
    if (!by_block) {
        while (!s.done())
            out.push(s.take());
        return out;
    }
    std::size_t n = 0;
    while (const TraceRecord *run = s.takeBlock(n))
        for (std::size_t i = 0; i < n; ++i)
            out.push(run[i]);
    return out;
}

TEST(TraceIngest, StreamYieldsExactlyTheEmittedBuffer)
{
    // Three per-core files of 0, 1 and 10001 records, in two block
    // sizes.  Three workloads walk iterations 0 (record),
    // 1 (replay) and 2 (replay + teardown) in step: one materialises,
    // the others drain openIteration()'s streams record by record and
    // run by run.  Every iteration must yield the same records.
    const std::string prefix = tmpPath("ingest_stream");
    const std::size_t sizes[] = {0, 1, 10001};
    for (const std::uint32_t block : {17u, kDefaultBlockRecords}) {
        for (unsigned c = 0; c < 3; ++c) {
            const std::string path =
                prefix + ".c" + std::to_string(c) + ".rnrt";
            const TraceBuffer trace = fuzzTrace(90 + c, sizes[c]);
            ASSERT_TRUE(writeTraceFileV2(path, trace, block));
        }
        for (std::uint32_t window : {0u, 64u}) {
            SCOPED_TRACE(::testing::Message()
                         << "block=" << block << " window=" << window);
            WorkloadOptions opts;
            opts.cores = 3;
            opts.window_size = window;
            TraceFileWorkload emitted(prefix, opts);
            TraceFileWorkload by_record(prefix, opts);
            TraceFileWorkload by_block(prefix, opts);
            std::vector<TraceBuffer> bufs(3);
            for (unsigned iter = 0; iter < 3; ++iter) {
                const bool last = iter == 2;
                emitted.emitIteration(iter, last, bufs);
                std::vector<TraceFileStream> rec =
                    by_record.openIteration(iter, last);
                std::vector<TraceFileStream> blk =
                    by_block.openIteration(iter, last);
                ASSERT_EQ(rec.size(), 3u);
                ASSERT_EQ(blk.size(), 3u);
                for (unsigned c = 0; c < 3; ++c) {
                    SCOPED_TRACE(::testing::Message()
                                 << "iter " << iter << " core " << c);
                    expectSameRecords(bufs[c], drain(rec[c], false));
                    expectSameRecords(bufs[c], drain(blk[c], true));
                    EXPECT_FALSE(rec[c].error());
                    EXPECT_FALSE(blk[c].error());
                    EXPECT_TRUE(rec[c].done());
                    EXPECT_TRUE(blk[c].done());
                }
            }
        }
    }
    for (unsigned c = 0; c < 3; ++c)
        std::remove((prefix + ".c" + std::to_string(c) + ".rnrt").c_str());
}

TEST(TraceBufferMemory, MemoryBytesTracksRecordCount)
{
    TraceBuffer buf;
    EXPECT_EQ(buf.memoryBytes(), 0u);
    buf.push(TraceRecord::load(0x1000, 1, 0));
    buf.push(TraceRecord::store(0x2000, 2, 5));
    EXPECT_EQ(buf.memoryBytes(), 2 * sizeof(TraceRecord));
}

} // namespace
} // namespace rnr
