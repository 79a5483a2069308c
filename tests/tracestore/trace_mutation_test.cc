/**
 * @file
 * Fixed-seed mutation tests of the two v2 block decoders the runner
 * streams through: StreamingTraceReader over a trace file (store replay,
 * and the capture that reads its own files back) and SegmentSource over
 * an in-memory segment (store-off cells).
 *
 * Every case starts from valid bytes and applies Rng-driven bit flips,
 * truncations, or lying payload_bytes / record_count fields.  Each must
 * end in a typed error (error() with a non-Ok TraceIoResult) or a valid
 * parse; never a crash, a read past the bytes (the ASan job runs these
 * too), an allocation the bytes cannot back, or a loop that does not
 * end.  The footer reader (readTraceFileV2Stats) gets the same mutated
 * files.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "sim/rng.h"
#include "tracestore/trace_codec.h"
#include "tracestore/trace_reader.h"
#include "tracestore/trace_segment.h"
#include "tracestore/trace_writer.h"

namespace rnr {
namespace {

namespace fs = std::filesystem;

using Bytes = std::vector<std::uint8_t>;

/** Three and a bit blocks of mixed loads, stores and RnR calls. */
std::vector<TraceRecord>
sampleRecords()
{
    Rng rng(17);
    std::vector<TraceRecord> recs;
    for (std::size_t i = 0; i < 3 * kDefaultBlockRecords + 123; ++i) {
        const std::uint32_t gap = static_cast<std::uint32_t>(rng.below(9));
        if (i % 1000 == 0) {
            TraceRecord r = TraceRecord::control(
                RnrOp::AddrBaseSet, 0x20000000 + i, rng.below(1 << 20));
            r.gap = gap;
            recs.push_back(r);
        } else if (i % 4 == 0) {
            recs.push_back(TraceRecord::store(0x10000000 + 8 * i, 3, gap));
        } else {
            recs.push_back(TraceRecord::load(
                0x30000000 + 64 * rng.below(1 << 18),
                7 + static_cast<std::uint32_t>(i % 3), gap));
        }
    }
    return recs;
}

/** What draining a decoder yielded. */
struct Outcome {
    bool error = false;
    TraceIoResult result;
    std::uint64_t records = 0;
};

/** Drains @p src through takeBlock(); fails the test if it runs more
 *  rounds than @p byte_budget allows (each round consumes a frame). */
template <typename Source>
Outcome
drain(Source &src, std::size_t byte_budget)
{
    Outcome o;
    std::size_t n = 0, rounds = 0;
    while (src.takeBlock(n)) {
        o.records += n;
        if (++rounds > byte_budget) {
            ADD_FAILURE() << "decoder did not terminate";
            break;
        }
    }
    o.error = src.error();
    o.result = src.errorResult();
    return o;
}

/** Every outcome must be a typed error or a clean end, and no decoder
 *  may yield more records than the bytes can encode. */
void
expectTypedOrValid(const Outcome &o, std::size_t bytes, const char *what)
{
    if (o.error) {
        EXPECT_NE(o.result.status, TraceIoStatus::Ok) << what;
        EXPECT_FALSE(o.result.message().empty()) << what;
    }
    EXPECT_LE(o.records, bytes / kMinEncodedRecordBytes) << what;
}

/** Offsets of every frame header in a run of frames starting at
 *  @p first. */
std::vector<std::size_t>
frameOffsets(const Bytes &b, std::size_t first)
{
    std::vector<std::size_t> at;
    std::size_t off = first;
    while (off + 8 <= b.size()) {
        std::uint32_t payload = 0, count = 0;
        std::memcpy(&payload, b.data() + off, 4);
        std::memcpy(&count, b.data() + off + 4, 4);
        if (payload == 0 && count == 0)
            break; // a file's terminator
        at.push_back(off);
        off += 8 + payload;
    }
    return at;
}

void
putU32(Bytes &b, std::size_t at, std::uint32_t v)
{
    std::memcpy(b.data() + at, &v, 4);
}

/** One mutation of @p b drawn from @p rng: bit flips, a truncation, or
 *  a lying header field of a random frame. */
void
mutate(Bytes &b, const std::vector<std::size_t> &frames, Rng &rng)
{
    static const std::uint32_t kLies[] = {
        0, 1, 7, kDefaultBlockRecords, kDefaultBlockRecords + 1,
        0x7fffffffu, 0xffffffffu};
    const std::size_t at = frames[rng.below(frames.size())];
    switch (rng.below(4)) {
      case 0: // 1-8 bit flips anywhere
        for (std::uint64_t k = 1 + rng.below(8); k-- > 0;)
            b[rng.below(b.size())] ^=
                static_cast<std::uint8_t>(1u << rng.below(8));
        break;
      case 1: // truncation
        b.resize(rng.below(b.size()));
        break;
      case 2: // lying payload_bytes
        putU32(b, at,
               rng.below(2) ? kLies[rng.below(std::size(kLies))]
                            : static_cast<std::uint32_t>(rng.next64()));
        break;
      default: // lying record_count
        putU32(b, at + 4,
               rng.below(2) ? kLies[rng.below(std::size(kLies))]
                            : static_cast<std::uint32_t>(rng.below(9000)));
        break;
    }
}

class TraceMutationTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = (fs::temp_directory_path() /
                 ("rnr_mutation_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name()) +
                  ".rnrt"))
                    .string();
        TraceFileWriter w;
        ASSERT_TRUE(bool(w.open(path_)));
        w.write(recs_.data(), recs_.size());
        ASSERT_TRUE(bool(w.close()));
        std::ifstream in(path_, std::ios::binary);
        file_.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());

        SegmentSink sink;
        sink.write(recs_.data(), recs_.size());
        segment_ = sink.release();
    }

    void TearDown() override { fs::remove(path_); }

    /** Writes @p b over the test file and streams it. */
    Outcome
    readFile(const Bytes &b)
    {
        {
            std::ofstream out(path_, std::ios::binary | std::ios::trunc);
            out.write(reinterpret_cast<const char *>(b.data()),
                      static_cast<std::streamsize>(b.size()));
        }
        StreamingTraceReader reader;
        if (TraceIoResult r = reader.open(path_); !r) {
            Outcome o;
            o.error = true;
            o.result = r;
            return o;
        }
        return drain(reader, b.size());
    }

    Outcome
    readSegment(Bytes b)
    {
        const std::size_t size = b.size();
        SegmentSource src(std::move(b));
        return drain(src, size);
    }

    const std::vector<TraceRecord> recs_ = sampleRecords();
    std::string path_;
    Bytes file_;
    Bytes segment_;
};

constexpr std::size_t kV2HeaderBytes = 16;

TEST_F(TraceMutationTest, UnmutatedBytesDecodeEveryRecord)
{
    const Outcome f = readFile(file_);
    EXPECT_FALSE(f.error) << f.result.message();
    EXPECT_EQ(f.records, recs_.size());
    const Outcome s = readSegment(segment_);
    EXPECT_FALSE(s.error) << s.result.message();
    EXPECT_EQ(s.records, recs_.size());
    // A segment is a file's body: the same frames, byte for byte.
    ASSERT_GE(file_.size(), kV2HeaderBytes + segment_.size());
    EXPECT_TRUE(std::equal(segment_.begin(), segment_.end(),
                           file_.begin() + kV2HeaderBytes));
}

TEST_F(TraceMutationTest, SegmentMutationsEndTypedOrValid)
{
    const std::vector<std::size_t> frames = frameOffsets(segment_, 0);
    ASSERT_EQ(frames.size(), 4u);
    Rng rng(20240611);
    for (int i = 0; i < 400; ++i) {
        Bytes b = segment_;
        mutate(b, frames, rng);
        const std::string what = "segment case " + std::to_string(i);
        expectTypedOrValid(readSegment(std::move(b)), segment_.size(),
                           what.c_str());
    }
}

TEST_F(TraceMutationTest, FileMutationsEndTypedOrValid)
{
    const std::vector<std::size_t> frames =
        frameOffsets(file_, kV2HeaderBytes);
    ASSERT_EQ(frames.size(), 4u);
    Rng rng(20240612);
    for (int i = 0; i < 300; ++i) {
        Bytes b = file_;
        mutate(b, frames, rng);
        const std::string what = "file case " + std::to_string(i);
        expectTypedOrValid(readFile(b), file_.size(), what.c_str());
        // The footer reader sees the same bytes: a typed result either
        // way, and never a block count the file cannot hold.
        TraceFileStats stats;
        std::vector<TraceBlockIndexEntry> index;
        if (readTraceFileV2Stats(path_, stats, &index)) {
            EXPECT_LE(index.size(), b.size() / 16) << what;
        }
    }
}

TEST_F(TraceMutationTest, LyingFieldsAreTypedErrorsBeforeAnyAllocation)
{
    for (const bool in_file : {false, true}) {
        const Bytes &valid = in_file ? file_ : segment_;
        const std::size_t second =
            frameOffsets(valid, in_file ? kV2HeaderBytes : 0)[1];
        auto run = [&](std::size_t field, std::uint32_t value) {
            Bytes b = valid;
            putU32(b, second + field, value);
            return in_file ? readFile(b) : readSegment(std::move(b));
        };
        // A payload longer than the bytes left is refused as truncated
        // before its buffer is sized; the first block still decoded.
        const Outcome huge = run(0, 0xffffffffu);
        EXPECT_TRUE(huge.error);
        EXPECT_EQ(huge.result.status, TraceIoStatus::Truncated);
        EXPECT_NE(huge.result.message().find("overruns"), std::string::npos)
            << huge.result.message();
        EXPECT_EQ(huge.records, kDefaultBlockRecords);
        // Record counts of zero or beyond a block are corrupt.
        for (const std::uint32_t count :
             {0u, kDefaultBlockRecords + 1, 0xffffffffu}) {
            const Outcome bad = run(4, count);
            EXPECT_TRUE(bad.error) << count;
            EXPECT_EQ(bad.result.status, TraceIoStatus::CorruptBlock)
                << count;
        }
        // A count that disagrees with a well-formed payload is corrupt.
        const Outcome short_count = run(4, kDefaultBlockRecords - 1);
        EXPECT_TRUE(short_count.error);
        EXPECT_EQ(short_count.result.status, TraceIoStatus::CorruptBlock);
    }
}

} // namespace
} // namespace rnr
