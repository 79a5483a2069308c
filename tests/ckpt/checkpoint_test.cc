/**
 * @file
 * rnr-ckpt-v1 container tests: header and section round trips, typed
 * failures on corrupt blobs, atomic file publish, and the section
 * registry's coverage by the input snapshots the fork sweep writes.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/ckpt_store.h"
#include "ckpt/input_fork.h"

namespace rnr {
namespace {

namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = (fs::temp_directory_path() /
                 ("rnr_ckpt_test_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name())))
                    .string();
        fs::remove_all(root_);
        setenv("RNR_CKPT_DIR", root_.c_str(), 1);
        unsetenv("RNR_CKPT");
        ckpt::CheckpointStore::instance().resetForTest();
        ckpt::resetInputForkForTest();
    }

    void
    TearDown() override
    {
        ckpt::CheckpointStore::instance().resetForTest();
        ckpt::resetInputForkForTest();
        unsetenv("RNR_CKPT_DIR");
        fs::remove_all(root_);
    }

    static ExperimentConfig
    smallConfig(const std::string &app)
    {
        ExperimentConfig cfg;
        cfg.app = app;
        cfg.input = app == "spcg" ? "atmosmodj" : "urand";
        return cfg;
    }

    std::string root_;
};

TEST_F(CheckpointTest, ContainerRoundTripsHeaderAndSections)
{
    ckpt::SnapshotWriter w(ckpt::SnapshotHeader{"wkey", "fullkey", 2});
    {
        ckpt::Ser &s = w.section(ckpt::SectionId::Meta);
        s.scalar(std::uint64_t{42});
    }
    {
        ckpt::Ser &s = w.section(ckpt::SectionId::System);
        s.scalar(std::uint64_t{7});
        s.scalar(std::uint64_t{8});
    }
    const std::vector<std::uint8_t> blob = w.finish();

    ckpt::SnapshotReader r;
    ASSERT_TRUE(r.parse(blob).ok());
    EXPECT_EQ(r.header().workload_key, "wkey");
    EXPECT_EQ(r.header().full_key, "fullkey");
    EXPECT_EQ(r.header().window, 2u);
    ASSERT_EQ(r.sections().size(), 2u);
    EXPECT_TRUE(r.hasSection(ckpt::SectionId::Meta));
    EXPECT_TRUE(r.hasSection(ckpt::SectionId::System));
    EXPECT_FALSE(r.hasSection(ckpt::SectionId::Harness));

    ckpt::Deser meta = r.section(ckpt::SectionId::Meta);
    std::uint64_t v = 0;
    meta.scalar(v);
    EXPECT_TRUE(meta.ok());
    EXPECT_EQ(v, 42u);
    EXPECT_EQ(meta.remaining(), 0u);

    ckpt::Deser sys = r.section(ckpt::SectionId::System);
    sys.scalar(v);
    EXPECT_EQ(v, 7u);
    sys.scalar(v);
    EXPECT_EQ(v, 8u);
    EXPECT_TRUE(sys.ok());

    // An absent section reads as an empty archive, not a crash.
    ckpt::Deser missing = r.section(ckpt::SectionId::Harness);
    missing.scalar(v);
    EXPECT_FALSE(missing.ok());
}

TEST_F(CheckpointTest, CorruptContainersFailTyped)
{
    ckpt::SnapshotWriter w(ckpt::SnapshotHeader{"k", "", 0});
    w.section(ckpt::SectionId::Input).scalar(std::uint64_t{1});
    const std::vector<std::uint8_t> blob = w.finish();
    ckpt::SnapshotReader r;

    // Bit flip anywhere -> BadChecksum.
    std::vector<std::uint8_t> flipped = blob;
    flipped[blob.size() / 2] ^= 0x40;
    EXPECT_EQ(r.parse(flipped).status, ckpt::CkptIoStatus::BadChecksum);

    // Truncation -> Truncated.
    std::vector<std::uint8_t> cut(blob.begin(), blob.begin() + 10);
    EXPECT_EQ(r.parse(cut).status, ckpt::CkptIoStatus::Truncated);

    // Wrong magic -> BadMagic.
    std::vector<std::uint8_t> magic = blob;
    magic[0] = 'X';
    EXPECT_EQ(r.parse(magic).status, ckpt::CkptIoStatus::BadMagic);

    // Future version (with a recomputed checksum) -> BadVersion.
    std::vector<std::uint8_t> ver = blob;
    ver[8] = 2; // version u64 starts right after the 8-byte magic
    const std::uint64_t sum =
        ckpt::fnv1a64(ver.data(), ver.size() - 8);
    for (int i = 0; i < 8; ++i)
        ver[ver.size() - 8 + i] =
            static_cast<std::uint8_t>(sum >> (8 * i));
    EXPECT_EQ(r.parse(ver).status, ckpt::CkptIoStatus::BadVersion);
}

TEST_F(CheckpointTest, SnapshotFileRoundTripsAndInspects)
{
    ckpt::SnapshotWriter w(ckpt::SnapshotHeader{"wkey", "full", 1});
    w.section(ckpt::SectionId::Meta).scalar(std::uint64_t{5});
    const std::vector<std::uint8_t> blob = w.finish();

    const std::string path = root_ + "/snap.ckpt";
    ASSERT_TRUE(ckpt::writeSnapshotFile(path, blob).ok());
    // The publish left no temp file behind.
    std::size_t files = 0;
    for (const auto &f : fs::directory_iterator(root_)) {
        (void)f;
        ++files;
    }
    EXPECT_EQ(files, 1u);

    std::vector<std::uint8_t> back;
    ASSERT_TRUE(ckpt::readSnapshotFile(path, back).ok());
    EXPECT_EQ(back, blob);

    ckpt::SnapshotInfo info;
    ASSERT_TRUE(ckpt::inspectSnapshotFile(path, info).ok());
    EXPECT_EQ(info.header.workload_key, "wkey");
    EXPECT_EQ(info.header.window, 1u);
    EXPECT_EQ(info.total_bytes, blob.size());
    ASSERT_EQ(info.sections.size(), 1u);
    EXPECT_EQ(info.sections[0].id,
              static_cast<std::uint64_t>(ckpt::SectionId::Meta));

    EXPECT_EQ(ckpt::readSnapshotFile(root_ + "/absent.ckpt", back).status,
              ckpt::CkptIoStatus::OpenFail);
}

TEST_F(CheckpointTest, SnapshotCoversEverySection)
{
    // Registration assertion: input snapshots write every registered
    // section that is not retired, and no retired one.  Adding a
    // section to RNR_CKPT_SECTIONS without teaching the capture path
    // about it (or retiring it) fails here.
    for (const std::string app : {"pagerank", "spcg"}) {
        const ExperimentConfig cfg = smallConfig(app);
        if (app == "spcg")
            (void)ckpt::forkMatrixInput(cfg);
        else
            (void)ckpt::forkGraphInput(cfg);

        std::vector<std::uint8_t> blob;
        ASSERT_TRUE(ckpt::readSnapshotFile(
                        ckpt::CheckpointStore::snapshotPath(
                            cfg.workloadKey(), 0),
                        blob)
                        .ok())
            << app << ": the warm-up should have published a snapshot";
        ckpt::SnapshotReader input;
        ASSERT_TRUE(input.parse(blob).ok()) << app;
        EXPECT_EQ(input.header().workload_key, cfg.workloadKey());
        EXPECT_TRUE(input.header().full_key.empty());
        EXPECT_EQ(input.header().window, 0u);

        for (ckpt::SectionId id : ckpt::allSectionIds())
            EXPECT_EQ(input.hasSection(id), !ckpt::sectionRetired(id))
                << app << " section " << ckpt::toString(id);
    }
    // And the names are wired up, retired ids included.
    for (ckpt::SectionId id : ckpt::allSectionIds())
        EXPECT_STRNE(ckpt::toString(id), "?");
    EXPECT_FALSE(ckpt::sectionRetired(ckpt::SectionId::Input));
    EXPECT_TRUE(ckpt::sectionRetired(ckpt::SectionId::System));
}

} // namespace
} // namespace rnr
