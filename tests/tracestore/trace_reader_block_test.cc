/**
 * @file
 * StreamingTraceReader::takeBlock() tests: the batched kernel streams a
 * v2 file run-by-run, so each run must be a zero-copy view of the
 * decoded block, and runs must tile the file exactly (block boundaries
 * included).
 */
#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tracestore/trace_codec.h"
#include "tracestore/trace_reader.h"

namespace rnr {
namespace {

namespace fs = std::filesystem;

class TraceReaderBlockTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("rnr_reader_block_" +
                 std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name())))
                   .string();
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    static TraceBuffer
    makeTrace(std::size_t n)
    {
        TraceBuffer buf;
        buf.push(TraceRecord::control(RnrOp::Init));
        for (std::size_t i = 0; i < n; ++i) {
            if (i % 6 == 0)
                buf.push(TraceRecord::store(
                    0x4000 + Addr(i) * 64,
                    static_cast<std::uint32_t>(i % 9), 1));
            else
                buf.push(TraceRecord::load(
                    0x4000 + Addr(i) * 64,
                    static_cast<std::uint32_t>(i % 9),
                    static_cast<std::uint16_t>(i % 3)));
        }
        buf.push(TraceRecord::control(RnrOp::EndState));
        return buf;
    }

    static void
    expectSameRecord(const TraceRecord &a, const TraceRecord &b,
                     std::size_t i)
    {
        EXPECT_EQ(a.addr, b.addr) << i;
        EXPECT_EQ(a.aux, b.aux) << i;
        EXPECT_EQ(a.pc, b.pc) << i;
        EXPECT_EQ(a.gap, b.gap) << i;
        EXPECT_EQ(a.kind, b.kind) << i;
    }

    std::string dir_;
};

TEST_F(TraceReaderBlockTest, RunsTileAV2FileAcrossBlockBoundaries)
{
    // 64-record blocks and 200+2 records: three full blocks plus a
    // partial tail, so takeBlock() crosses refills repeatedly.
    const TraceBuffer expect = makeTrace(200);
    const std::string path = dir_ + "/t.v2";
    ASSERT_TRUE(bool(writeTraceFileV2(path, expect, 64)));

    StreamingTraceReader reader;
    ASSERT_TRUE(bool(reader.open(path)));

    std::vector<TraceRecord> got;
    std::size_t runs = 0;
    for (;;) {
        std::size_t n = 0;
        const TraceRecord *run = reader.takeBlock(n);
        if (!run) {
            EXPECT_EQ(n, 0u);
            break;
        }
        ASSERT_GT(n, 0u);
        // No run may span a decoded block: the view lives inside one
        // 64-record block.
        EXPECT_LE(n, 64u);
        got.insert(got.end(), run, run + n);
        ++runs;
    }

    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSameRecord(got[i], expect.records()[i], i);
    EXPECT_GE(runs, 4u);
    EXPECT_TRUE(reader.done());
    EXPECT_FALSE(reader.error());
    EXPECT_EQ(reader.recordsDelivered(), expect.size());
}

TEST_F(TraceReaderBlockTest, TakeAndTakeBlockInterleaveAcrossRefills)
{
    const TraceBuffer expect = makeTrace(150);
    const std::string path = dir_ + "/t.v2";
    ASSERT_TRUE(bool(writeTraceFileV2(path, expect, 32)));

    StreamingTraceReader reader;
    ASSERT_TRUE(bool(reader.open(path)));

    std::vector<TraceRecord> got;
    bool block_turn = false;
    while (!reader.done()) {
        if (block_turn) {
            std::size_t n = 0;
            const TraceRecord *run = reader.takeBlock(n);
            ASSERT_NE(run, nullptr);
            got.insert(got.end(), run, run + n);
        } else {
            // A few per-record takes, then switch back to runs —
            // mid-block, so the next run is a partial view.
            for (int i = 0; i < 5 && !reader.done(); ++i)
                got.push_back(reader.take());
        }
        block_turn = !block_turn;
    }

    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSameRecord(got[i], expect.records()[i], i);
    EXPECT_EQ(reader.recordsDelivered(), expect.size());
}

TEST_F(TraceReaderBlockTest, EmptyTraceYieldsNoRuns)
{
    const TraceBuffer empty;
    const std::string path = dir_ + "/e.v2";
    ASSERT_TRUE(bool(writeTraceFileV2(path, empty, 64)));

    StreamingTraceReader reader;
    ASSERT_TRUE(bool(reader.open(path)));
    std::size_t n = 5;
    EXPECT_EQ(reader.takeBlock(n), nullptr);
    EXPECT_EQ(n, 0u);
    EXPECT_TRUE(reader.done());
}

} // namespace
} // namespace rnr
