/**
 * @file
 * ChampSim importer tests: slot-to-record mapping, pc folding, gap
 * accumulation, error reporting, and the checked-in fixture used by the
 * CI convert->simulate smoke test.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "test_util.h"
#include "tracestore/champsim_import.h"
#include "tracestore/trace_codec.h"

namespace rnr {
namespace {

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** One packed 64-byte ChampSim record under construction. */
struct ChampRec {
    std::uint8_t bytes[kChampSimRecordBytes] = {};

    static void
    putU64(std::uint8_t *p, std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    ChampRec &
    ip(std::uint64_t v)
    {
        putU64(bytes + 0, v);
        return *this;
    }
    ChampRec &
    destMem(int slot, std::uint64_t v)
    {
        putU64(bytes + 16 + 8 * slot, v);
        return *this;
    }
    ChampRec &
    srcMem(int slot, std::uint64_t v)
    {
        putU64(bytes + 32 + 8 * slot, v);
        return *this;
    }
};

std::string
writeChampFile(const std::string &name, const std::vector<ChampRec> &recs,
               std::size_t extra_bytes = 0)
{
    const std::string path = tempPath(name);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const auto &r : recs)
        out.write(reinterpret_cast<const char *>(r.bytes),
                  kChampSimRecordBytes);
    for (std::size_t i = 0; i < extra_bytes; ++i)
        out.put('\0');
    return path;
}

TEST(ChampSimImport, MapsMemorySlotsToLoadAndStoreRecords)
{
    std::vector<ChampRec> recs(3);
    recs[0].ip(0x400000).srcMem(0, 0x1000).srcMem(2, 0x2000);
    recs[1].ip(0x400004).destMem(1, 0x3000);
    recs[2].ip(0x400008).srcMem(0, 0x4000).destMem(0, 0x5000);

    TraceBuffer buf;
    ChampSimImportStats stats;
    const std::string path = writeChampFile("champ_map.trace", recs);
    ASSERT_TRUE(bool(importChampSimTrace(path, buf, &stats)));

    EXPECT_EQ(stats.instructions, 3u);
    EXPECT_EQ(stats.loads, 3u);
    EXPECT_EQ(stats.stores, 2u);
    EXPECT_EQ(stats.memless, 0u);

    ASSERT_EQ(buf.size(), 5u);
    const auto &r = buf.records();
    // Instruction 0: src slots scanned in order.
    EXPECT_EQ(r[0].kind, RecordKind::Load);
    EXPECT_EQ(r[0].addr, 0x1000u);
    EXPECT_EQ(r[1].kind, RecordKind::Load);
    EXPECT_EQ(r[1].addr, 0x2000u);
    // Instruction 1: dest slot -> store.
    EXPECT_EQ(r[2].kind, RecordKind::Store);
    EXPECT_EQ(r[2].addr, 0x3000u);
    // Instruction 2: sources before destinations.
    EXPECT_EQ(r[3].kind, RecordKind::Load);
    EXPECT_EQ(r[3].addr, 0x4000u);
    EXPECT_EQ(r[4].kind, RecordKind::Store);
    EXPECT_EQ(r[4].addr, 0x5000u);

    // All of instruction 0/2's records share that instruction's pc.
    EXPECT_EQ(r[0].pc, r[1].pc);
    EXPECT_EQ(r[3].pc, r[4].pc);
    EXPECT_NE(r[0].pc, r[2].pc);
}

TEST(ChampSimImport, FoldsHighIpBitsIntoPc)
{
    std::vector<ChampRec> recs(2);
    recs[0].ip(0x00007f0012345678ull).srcMem(0, 0x1000);
    recs[1].ip(0x0000000012345678ull).srcMem(0, 0x1000);

    TraceBuffer buf;
    const std::string path = writeChampFile("champ_fold.trace", recs);
    ASSERT_TRUE(bool(importChampSimTrace(path, buf, nullptr)));
    ASSERT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf.records()[0].pc, 0x12345678u ^ 0x00007f00u);
    EXPECT_EQ(buf.records()[1].pc, 0x12345678u);
    EXPECT_NE(buf.records()[0].pc, buf.records()[1].pc);
}

TEST(ChampSimImport, MemlessInstructionsAccumulateIntoNextGap)
{
    std::vector<ChampRec> recs(5);
    recs[0].ip(0x400000).srcMem(0, 0x1000);
    recs[1].ip(0x400004); // memless
    recs[2].ip(0x400008); // memless
    recs[3].ip(0x40000c).srcMem(0, 0x2000);
    recs[4].ip(0x400010); // trailing memless: dropped (no next record)

    TraceBuffer buf;
    ChampSimImportStats stats;
    const std::string path = writeChampFile("champ_gap.trace", recs);
    ASSERT_TRUE(bool(importChampSimTrace(path, buf, &stats)));

    ASSERT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf.records()[0].gap, 0u);
    EXPECT_EQ(buf.records()[1].gap, 2u);
    EXPECT_EQ(stats.memless, 3u);
}

TEST(ChampSimImport, TrailingBytesReportTruncatedWithHint)
{
    std::vector<ChampRec> recs(2);
    recs[0].ip(0x400000).srcMem(0, 0x1000);
    recs[1].ip(0x400004).srcMem(0, 0x2000);
    const std::string path =
        writeChampFile("champ_torn.trace", recs, /*extra_bytes=*/17);

    TraceBuffer buf;
    TraceIoResult r = importChampSimTrace(path, buf, nullptr);
    EXPECT_FALSE(bool(r));
    EXPECT_EQ(r.status, TraceIoStatus::Truncated);
    EXPECT_NE(r.message().find("17"), std::string::npos) << r.message();
    EXPECT_NE(r.message().find("compressed"), std::string::npos)
        << r.message();
}

TEST(ChampSimImport, EmptyFileIsAnError)
{
    const std::string path = writeChampFile("champ_empty.trace", {});
    TraceBuffer buf;
    TraceIoResult r = importChampSimTrace(path, buf, nullptr);
    EXPECT_FALSE(bool(r));
    EXPECT_EQ(r.status, TraceIoStatus::Truncated);
}

TEST(ChampSimImport, MissingFileReportsOpenFailedWithErrno)
{
    TraceBuffer buf;
    TraceIoResult r =
        importChampSimTrace(tempPath("champ_nonexistent.trace"), buf, nullptr);
    EXPECT_FALSE(bool(r));
    EXPECT_EQ(r.status, TraceIoStatus::OpenFailed);
    EXPECT_NE(r.sys_errno, 0);
}

// ---- The checked-in fixture (also exercised by the CI smoke test) ----
//
// tests/data/champsim_tiny.trace holds 64 records in a 4-phase pattern:
// load / store / (2 loads + 1 store) / memless.

TEST(ChampSimImport, ChecksInFixtureImportsWithExpectedShape)
{
    const std::string path =
        std::string(RNR_TEST_DATA_DIR) + "/champsim_tiny.trace";

    TraceBuffer buf;
    ChampSimImportStats stats;
    TraceIoResult r = importChampSimTrace(path, buf, &stats);
    ASSERT_TRUE(bool(r)) << r.message();

    EXPECT_EQ(stats.instructions, 64u);
    EXPECT_EQ(stats.loads, 48u);
    EXPECT_EQ(stats.stores, 32u);
    EXPECT_EQ(stats.memless, 16u);
    EXPECT_EQ(buf.size(), 80u);
    EXPECT_EQ(buf.loads(), 48u);
    EXPECT_EQ(buf.stores(), 32u);

    // Every 4th instruction was memless, so every post-gap record
    // carries gap 1 and the rest gap 0.
    std::uint64_t gap_sum = 0;
    for (const auto &rec : buf.records())
        gap_sum += rec.gap;
    EXPECT_EQ(gap_sum, 15u); // 16 memless; the last trails off unattached
}

TEST(ChampSimImport, FixtureConvertsToV2AndReadsBack)
{
    const std::string src =
        std::string(RNR_TEST_DATA_DIR) + "/champsim_tiny.trace";
    const std::string dst = tempPath("champ_tiny_convert.rnrt");

    TraceBuffer buf;
    ASSERT_TRUE(bool(importChampSimTrace(src, buf, nullptr)));
    ASSERT_TRUE(bool(writeTraceFileV2(dst, buf)));

    TraceFileStats stats;
    ASSERT_TRUE(bool(readTraceFileV2Stats(dst, stats)));
    EXPECT_EQ(stats.records, buf.size());
    EXPECT_EQ(stats.loads, buf.loads());
    EXPECT_EQ(stats.stores, buf.stores());

    TraceBuffer back;
    ASSERT_TRUE(bool(test::readTraceFile(dst, back)));
    ASSERT_EQ(back.size(), buf.size());
    for (std::size_t i = 0; i < back.size(); ++i) {
        EXPECT_EQ(back.records()[i].addr, buf.records()[i].addr);
        EXPECT_EQ(back.records()[i].pc, buf.records()[i].pc);
        EXPECT_EQ(back.records()[i].kind, buf.records()[i].kind);
        EXPECT_EQ(back.records()[i].gap, buf.records()[i].gap);
    }
}

} // namespace
} // namespace rnr
