#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "test_util.h"
#include "trace/trace_io.h"
#include "tracestore/trace_codec.h"

namespace rnr {
namespace {

struct TraceIoFixture : ::testing::Test {
    std::string
    tmpPath(const char *name)
    {
        return testing::TempDir() + "/" + name;
    }
};

TEST_F(TraceIoFixture, RoundTripPreservesEveryField)
{
    TraceBuffer original;
    original.push(TraceRecord::load(0x123456789abc, 42, 7));
    original.push(TraceRecord::store(0xdeadbeef00, 43, 0));
    original.push(TraceRecord::control(RnrOp::AddrBaseSet, 0x1000, 4096));
    original.push(TraceRecord::control(RnrOp::Replay));

    const std::string path = tmpPath("roundtrip.rnrt");
    ASSERT_TRUE(writeTraceFileV2(path, original));

    TraceBuffer loaded;
    ASSERT_TRUE(test::readTraceFile(path, loaded));
    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.loads(), original.loads());
    EXPECT_EQ(loaded.stores(), original.stores());
    EXPECT_EQ(loaded.controls(), original.controls());
    EXPECT_EQ(loaded.instructions(), original.instructions());
    for (std::size_t i = 0; i < original.size(); ++i) {
        const TraceRecord &a = original.records()[i];
        const TraceRecord &b = loaded.records()[i];
        EXPECT_EQ(a.addr, b.addr) << i;
        EXPECT_EQ(a.aux, b.aux) << i;
        EXPECT_EQ(a.pc, b.pc) << i;
        EXPECT_EQ(a.gap, b.gap) << i;
        EXPECT_EQ(a.kind, b.kind) << i;
        EXPECT_EQ(a.ctrl, b.ctrl) << i;
    }
    std::remove(path.c_str());
}

TEST_F(TraceIoFixture, EmptyTraceRoundTrips)
{
    TraceBuffer empty, loaded;
    const std::string path = tmpPath("empty.rnrt");
    ASSERT_TRUE(writeTraceFileV2(path, empty));
    ASSERT_TRUE(test::readTraceFile(path, loaded));
    EXPECT_TRUE(loaded.empty());
    std::remove(path.c_str());
}

TEST_F(TraceIoFixture, MissingFileFails)
{
    TraceBuffer buf;
    const TraceIoResult r =
        test::readTraceFile(tmpPath("does-not-exist.rnrt"), buf);
    EXPECT_EQ(r.status, TraceIoStatus::OpenFailed);
}

TEST_F(TraceIoFixture, BadMagicRejected)
{
    const std::string path = tmpPath("bad.rnrt");
    {
        std::ofstream out(path, std::ios::binary);
        out << "NOTATRACEFILE_____________";
    }
    TraceBuffer buf;
    EXPECT_EQ(test::readTraceFile(path, buf).status, TraceIoStatus::BadMagic);
    std::remove(path.c_str());
}

TEST_F(TraceIoFixture, TruncatedFileRejected)
{
    TraceBuffer original;
    for (int i = 0; i < 10; ++i)
        original.push(TraceRecord::load(Addr(i) * 64, 1, 1));
    const std::string path = tmpPath("trunc.rnrt");
    ASSERT_TRUE(writeTraceFileV2(path, original));
    // Chop the file mid-block: 16 header + 8 block header + 5 bytes.
    {
        std::ifstream in(path, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), 29);
    }
    TraceBuffer buf;
    EXPECT_EQ(test::readTraceFile(path, buf).status,
              TraceIoStatus::Truncated);
    EXPECT_TRUE(buf.empty());
    std::remove(path.c_str());
}

} // namespace
} // namespace rnr
