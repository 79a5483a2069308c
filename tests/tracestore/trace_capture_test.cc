/**
 * @file
 * Streamed capture writes exactly the files whole-buffer writing does.
 *
 * A capture encodes each block as the workload's tracer hands it over,
 * and the tracer's blocks are the v2 codec's blocks.  So every file a
 * capture writes must equal writeTraceFileV2() of the whole emitted
 * buffer, byte for byte (existing corpora stay valid), and the manifest
 * must count the same records and raw bytes.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "harness/runner.h"
#include "tracestore/trace_codec.h"
#include "tracestore/trace_store.h"
#include "tracestore/trace_writer.h"

namespace rnr {
namespace {

namespace fs = std::filesystem;

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/**
 * Four cores whose iterations are 0 records (core 0), 1 record, 5001
 * records (5000 memory ops and one RnR call: not a multiple of the
 * block size) and exactly two blocks' worth (core 3).
 */
class ShapedWorkload final : public Workload
{
  public:
    static constexpr std::size_t kMemOps[4] = {0, 1, 5000,
                                               2 * kDefaultBlockRecords};

    explicit ShapedWorkload(WorkloadOptions opts) : Workload(opts) {}

    std::string name() const override { return "shaped"; }
    std::uint64_t inputBytes() const override { return 1 << 20; }
    std::uint64_t targetBytes() const override { return 1 << 20; }

  protected:
    void
    emit(unsigned iter, bool is_last) override
    {
        (void)is_last;
        runtimes_[2]->replay();
        for (unsigned c = 0; c < cores(); ++c) {
            Tracer &t = *tracers_[c];
            for (std::size_t i = 0; i < kMemOps[c]; ++i) {
                t.instr(static_cast<std::uint32_t>(i % 5));
                const Addr a =
                    0x10000000 + 64 * ((i * 7919 + iter * 31 + c) % 50000);
                if (i % 3 == 2)
                    t.store(a, 20 + c);
                else
                    t.load(a, 10 + static_cast<std::uint32_t>(i % 4));
            }
        }
    }
};

class StreamedCaptureTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setenv("RNR_CACHE", "0", 1);
        root_ = (fs::temp_directory_path() /
                 ("rnr_streamed_capture_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name())))
                    .string();
        fs::remove_all(root_);
        fs::create_directories(root_);
        setenv("RNR_TRACE_DIR", (root_ + "/store").c_str(), 1);
        unsetenv("RNR_TRACE_STORE");
        unsetenv("RNR_TRACE_CAP_MB");
        TraceStore::instance().resetForTest();
    }

    void
    TearDown() override
    {
        TraceStore::instance().resetForTest();
        unsetenv("RNR_TRACE_DIR");
        fs::remove_all(root_);
    }

    /** writeTraceFileV2() of @p buf, read back as bytes. */
    std::string
    wholeBufferBytes(const TraceBuffer &buf)
    {
        const std::string path = root_ + "/whole.rnrt";
        EXPECT_TRUE(bool(writeTraceFileV2(path, buf)));
        return fileBytes(path);
    }

    std::string root_;
};

TEST_F(StreamedCaptureTest, ShapedCoresMatchWholeBufferFilesByteForByte)
{
    TraceStore &store = TraceStore::instance();
    const std::string wkey = "shaped:test:i3:n4";
    TraceStore::Entry entry;
    ASSERT_EQ(store.acquire(wkey, entry), TraceStore::Acquire::Owner);
    TraceStore::Capture cap = store.beginCapture(wkey, 3, 4);

    WorkloadOptions opts;
    opts.cores = 4;
    ShapedWorkload streamed(opts), whole(opts);
    std::vector<TraceBuffer> bufs;
    std::uint64_t records = 0, raw_bytes = 0;
    for (unsigned iter = 0; iter < 3; ++iter) {
        std::vector<TraceFileWriter> writers(4);
        std::vector<TraceSink *> sinks;
        for (unsigned c = 0; c < 4; ++c) {
            ASSERT_TRUE(bool(cap.open(iter, c, writers[c])));
            sinks.push_back(&writers[c]);
        }
        streamed.emitIteration(iter, iter == 2, sinks);
        for (unsigned c = 0; c < 4; ++c)
            ASSERT_TRUE(bool(cap.close(writers[c])));

        whole.emitIteration(iter, iter == 2, bufs);
        EXPECT_EQ(bufs[0].size(), 0u);
        EXPECT_EQ(bufs[1].size(), 1u);
        EXPECT_NE(bufs[2].size() % kDefaultBlockRecords, 0u);
        EXPECT_EQ(bufs[3].size(), 2 * kDefaultBlockRecords);
        for (unsigned c = 0; c < 4; ++c) {
            records += bufs[c].size();
            raw_bytes += bufs[c].memoryBytes();
            EXPECT_TRUE(fileBytes(cap.tracePath(iter, c)) ==
                        wholeBufferBytes(bufs[c]))
                << "iteration " << iter << " core " << c;
        }
    }
    ASSERT_TRUE(cap.publish(streamed.inputBytes(), streamed.targetBytes()));

    ASSERT_EQ(store.acquire(wkey, entry), TraceStore::Acquire::Hit);
    EXPECT_EQ(entry.records, records);
    EXPECT_EQ(entry.raw_bytes, raw_bytes);
}

TEST_F(StreamedCaptureTest, RunnerCaptureMatchesWholeBufferFilesOnPageRank)
{
    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.cores = 4;
    cfg.iterations = 3;
    cfg.prefetcher = PrefetcherKind::None;
    runExperimentUncached(cfg);

    TraceStore &store = TraceStore::instance();
    EXPECT_EQ(store.captures(), 1u);
    TraceStore::Entry entry;
    ASSERT_EQ(store.acquire(cfg.workloadKey(), entry),
              TraceStore::Acquire::Hit);

    std::unique_ptr<Workload> wl = makeWorkload(cfg);
    std::vector<TraceBuffer> bufs;
    std::uint64_t records = 0, raw_bytes = 0;
    for (unsigned iter = 0; iter < cfg.iterations; ++iter) {
        wl->emitIteration(iter, iter + 1 == cfg.iterations, bufs);
        for (unsigned c = 0; c < cfg.cores; ++c) {
            records += bufs[c].size();
            raw_bytes += bufs[c].memoryBytes();
            EXPECT_TRUE(fileBytes(entry.tracePath(iter, c)) ==
                        wholeBufferBytes(bufs[c]))
                << "iteration " << iter << " core " << c;
        }
    }
    EXPECT_EQ(entry.records, records);
    EXPECT_EQ(entry.raw_bytes, raw_bytes);
}

TEST_F(StreamedCaptureTest, WriterBytesArePinned)
{
    // The v2 bytes of this trace, as the whole-buffer writer produced
    // them before the streaming writer replaced it: corpora written by
    // either must stay interchangeable.
    TraceBuffer buf;
    for (std::uint64_t i = 0; i < 10000; ++i) {
        const std::uint32_t gap = static_cast<std::uint32_t>(i % 7);
        if (i % 997 == 0) {
            TraceRecord r = TraceRecord::control(RnrOp::AddrBaseSet,
                                                 0x20000000 + i, i * 4096);
            r.gap = gap;
            buf.push(r);
        } else if (i % 3 == 0) {
            buf.push(TraceRecord::store(0x10000000 + 8 * i, 5, gap));
        } else {
            buf.push(TraceRecord::load(
                0x30000000 + 64 * ((i * 7919) % 65536),
                6 + static_cast<std::uint32_t>(i % 2), gap));
        }
    }
    const std::string bytes = wholeBufferBytes(buf);
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a 64
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    EXPECT_EQ(bytes.size(), 57751u);
    EXPECT_EQ(h, 0x25c8b9bd3322e452ull);
}

} // namespace
} // namespace rnr
