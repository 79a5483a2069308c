/**
 * @file
 * Input-snapshot store tests, driven through the input fork: a
 * published snapshot serves a fresh process, a corrupt or foreign one
 * is regenerated, threads forking one input generate it once, and a
 * snapshot of another model epoch is never read.  The store machinery
 * itself (flock, abandon, a killed owner) is covered by BlobStoreTest.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/ckpt_store.h"
#include "ckpt/input_fork.h"

namespace rnr {
namespace ckpt {
namespace {

namespace fs = std::filesystem;

class CkptStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = (fs::temp_directory_path() /
                 ("rnr_ckpt_store_test_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name())))
                    .string();
        fs::remove_all(root_);
        setenv("RNR_CKPT_DIR", root_.c_str(), 1);
        unsetenv("RNR_CKPT");
        freshProcess();
        cfg_.app = "pagerank";
        cfg_.input = "amazon";
    }

    void
    TearDown() override
    {
        BlobStore::setEpochForTest(epoch_);
        freshProcess();
        unsetenv("RNR_CKPT_DIR");
        fs::remove_all(root_);
    }

    /** Forgets what this process knows, as a new process would. */
    static void
    freshProcess()
    {
        CheckpointStore::instance().resetForTest();
        resetInputForkForTest();
    }

    std::string
    snapshotPath() const
    {
        return CheckpointStore::instance().blobs().entryPath(
            inputSnapshotKey(cfg_));
    }

    void
    writeSnapshot(const std::vector<std::uint8_t> &blob) const
    {
        std::ofstream out(snapshotPath(), std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(blob.data()),
                  static_cast<std::streamsize>(blob.size()));
    }

    std::string root_;
    ExperimentConfig cfg_;
    const std::string epoch_ = BlobStore::epoch();
};

TEST_F(CkptStoreTest, PublishThenHitRoundTrips)
{
    CheckpointStore &store = CheckpointStore::instance();
    const Graph generated = forkGraphInput(cfg_);
    EXPECT_EQ(store.warmups(), 1u);
    ASSERT_TRUE(fs::exists(snapshotPath()));

    freshProcess();
    const Graph forked = forkGraphInput(cfg_);
    EXPECT_EQ(store.warmups(), 0u);
    EXPECT_EQ(store.forks(), 1u);
    EXPECT_EQ(forked.offsets, generated.offsets);
    EXPECT_EQ(forked.edges, generated.edges);
}

TEST_F(CkptStoreTest, CorruptSnapshotIsQuarantined)
{
    CheckpointStore &store = CheckpointStore::instance();
    const Graph generated = forkGraphInput(cfg_);
    fs::resize_file(snapshotPath(), fs::file_size(snapshotPath()) / 2);

    freshProcess();
    ::testing::internal::CaptureStderr();
    const Graph again = forkGraphInput(cfg_);
    ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(store.blobs().quarantines(), 1u);
    EXPECT_EQ(store.warmups(), 1u);
    EXPECT_EQ(again.edges, generated.edges);
    // The regenerated input was published again.
    EXPECT_EQ(fs::file_size(snapshotPath()),
              encodeInputSnapshot(inputSnapshotKey(cfg_), cfg_.input,
                                  generated)
                  .size());
}

TEST_F(CkptStoreTest, CorruptSnapshotWarnsOnceOnStderrNamingThePath)
{
    forkGraphInput(cfg_);
    {
        std::fstream f(snapshotPath(),
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(100);
        const char c = static_cast<char>(f.get());
        f.seekp(100);
        f.put(static_cast<char>(c ^ 0x01));
    }
    freshProcess();
    ::testing::internal::CaptureStderr();
    forkGraphInput(cfg_);
    const std::string err = ::testing::internal::GetCapturedStderr();

    std::vector<std::string> warnings;
    std::istringstream lines(err);
    for (std::string line; std::getline(lines, line);)
        if (line.rfind("rnr: warning: ckpt: ", 0) == 0)
            warnings.push_back(line);
    ASSERT_EQ(warnings.size(), 1u) << err;
    EXPECT_NE(warnings[0].find(snapshotPath()), std::string::npos)
        << warnings[0];
}

TEST_F(CkptStoreTest, HashCollisionReadsAsMissWithoutQuarantine)
{
    // Another key's valid snapshot sits at this input's path.
    CheckpointStore &store = CheckpointStore::instance();
    fs::create_directories(root_);
    writeSnapshot(encodeInputSnapshot("input:graph:other:g1", cfg_.input,
                                      Graph::fromEdgeList(2, {{0, 1}})));
    forkGraphInput(cfg_);
    EXPECT_EQ(store.blobs().quarantines(), 0u);
    EXPECT_EQ(store.warmups(), 1u);
}

TEST_F(CkptStoreTest, SingleFlightBlocksWaitersUntilPublish)
{
    // Threads forking one input generate it once; the others fork the
    // owner's snapshot or memo.
    CheckpointStore &store = CheckpointStore::instance();
    std::vector<std::thread> threads;
    std::vector<std::size_t> edges(4);
    for (std::size_t t = 0; t < edges.size(); ++t)
        threads.emplace_back(
            [&, t] { edges[t] = forkGraphInput(cfg_).edges.size(); });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(store.warmups(), 1u);
    EXPECT_EQ(store.forks(), edges.size() - 1);
    for (std::size_t n : edges)
        EXPECT_EQ(n, edges.front());
}

TEST_F(CkptStoreTest, SnapshotFromAnotherEpochIsAMiss)
{
    CheckpointStore &store = CheckpointStore::instance();
    BlobStore::setEpochForTest("epoch-a");
    forkGraphInput(cfg_);
    freshProcess();
    forkGraphInput(cfg_);
    ASSERT_EQ(store.warmups(), 0u); // epoch A's snapshot serves epoch A

    BlobStore::setEpochForTest("epoch-b");
    freshProcess();
    forkGraphInput(cfg_);
    EXPECT_EQ(store.warmups(), 1u);
    EXPECT_EQ(store.forks(), 0u);
    EXPECT_EQ(store.blobs().entryPaths().size(), 2u);
}

TEST_F(CkptStoreTest, DisabledStoreIsHonoured)
{
    setenv("RNR_CKPT", "0", 1);
    EXPECT_FALSE(CheckpointStore::enabled());
    forkGraphInput(cfg_);
    EXPECT_FALSE(fs::exists(root_));
    EXPECT_EQ(CheckpointStore::instance().warmups(), 0u);
    unsetenv("RNR_CKPT");
    EXPECT_TRUE(CheckpointStore::enabled());
    setenv("RNR_CKPT", "1", 1);
    EXPECT_TRUE(CheckpointStore::enabled());
    unsetenv("RNR_CKPT");
}

TEST(CheckpointTest, SnapshotFileRoundTripsAndInspects)
{
    const Graph g = Graph::fromEdgeList(4, {{0, 1}, {1, 2}, {3, 0}});
    const std::string key = "input:graph:tiny:g1";
    const std::vector<std::uint8_t> blob = encodeInputSnapshot(key, "tiny", g);

    BlobStore::Header h;
    ASSERT_TRUE(BlobStore::parse(blob.data(), blob.size(), h).ok());
    EXPECT_EQ(h.key, BlobStore::epochKey(key));
    EXPECT_EQ(h.payload_at + h.payload_len, blob.size());
    EXPECT_NE(h.checksum, 0u);

    Graph back;
    ASSERT_TRUE(decodeInputSnapshot(blob, "tiny", back).ok());
    EXPECT_EQ(back.num_vertices, g.num_vertices);
    EXPECT_EQ(back.offsets, g.offsets);
    EXPECT_EQ(back.edges, g.edges);
}

TEST(CheckpointTest, CorruptContainersFailTyped)
{
    const std::vector<std::uint8_t> good = encodeInputSnapshot(
        "input:graph:tiny:g1", "tiny", Graph::fromEdgeList(3, {{0, 2}}));
    Graph g;
    std::vector<std::uint8_t> b = good;
    b[1] ^= 0x20;
    EXPECT_EQ(decodeInputSnapshot(b, "tiny", g).status,
              CkptIoStatus::BadMagic);
    b = good;
    b[b.size() - 3] ^= 0x01;
    EXPECT_EQ(decodeInputSnapshot(b, "tiny", g).status,
              CkptIoStatus::BadChecksum);
    b.assign(good.begin(), good.begin() + 10);
    EXPECT_EQ(decodeInputSnapshot(b, "tiny", g).status,
              CkptIoStatus::Truncated);
    b.clear();
    EXPECT_EQ(decodeInputSnapshot(b, "tiny", g).status,
              CkptIoStatus::Truncated);
}

} // namespace
} // namespace ckpt
} // namespace rnr
