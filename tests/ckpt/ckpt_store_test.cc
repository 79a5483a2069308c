/**
 * @file
 * CheckpointStore lifecycle tests: publish/hit, quarantine,
 * hash-collision-as-miss, abandon-promotes-a-waiter and single-flight
 * blocking, both across threads and across processes (a fork()ed owner
 * that publishes late, and one that is SIGKILLed before it publishes).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/ckpt_store.h"
#include "forked_child.h"

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
        CheckpointStore::instance().resetForTest();
    }

    void
    TearDown() override
    {
        CheckpointStore::instance().resetForTest();
        unsetenv("RNR_CKPT_DIR");
        fs::remove_all(root_);
    }

    /** A minimal valid snapshot for @p key at @p window carrying one
     *  recognisable payload value. */
    static std::vector<std::uint8_t>
    makeBlob(const std::string &key, std::uint64_t window,
             std::uint64_t payload)
    {
        SnapshotWriter w(SnapshotHeader{key, window ? key : "", window});
        w.section(window ? SectionId::System : SectionId::Input)
            .scalar(payload);
        return w.finish();
    }

    std::string root_;
};

TEST_F(CkptStoreTest, PublishThenHitRoundTrips)
{
    CheckpointStore &store = CheckpointStore::instance();
    std::vector<std::uint8_t> blob;
    ASSERT_EQ(store.acquire("key-a", 2, blob),
              CheckpointStore::Acquire::Owner);
    const std::vector<std::uint8_t> published = makeBlob("key-a", 2, 77);
    ASSERT_TRUE(store.publish("key-a", 2, published));
    EXPECT_EQ(store.saves(), 1u);
    // The production lock file is cleaned up after publish.
    EXPECT_FALSE(fs::exists(root_ + "/" + ckptHashName("key-a") +
                            ".w2.lock"));

    EXPECT_EQ(store.acquire("key-a", 2, blob),
              CheckpointStore::Acquire::Hit);
    EXPECT_EQ(blob, published);

    // Same key, different window: independent slot.
    ASSERT_EQ(store.acquire("key-a", 3, blob),
              CheckpointStore::Acquire::Owner);
    store.abandon("key-a", 3);
}

TEST_F(CkptStoreTest, CorruptSnapshotIsQuarantined)
{
    CheckpointStore &store = CheckpointStore::instance();
    std::vector<std::uint8_t> blob = makeBlob("key-c", 1, 9);
    blob[blob.size() / 2] ^= 0x01; // break the checksum
    ASSERT_TRUE(writeSnapshotFile(
                    CheckpointStore::snapshotPath("key-c", 1), blob)
                    .ok());

    std::vector<std::uint8_t> out;
    // The corrupt file reads as a miss (caller becomes Owner) and is
    // removed from disk.
    EXPECT_EQ(store.acquire("key-c", 1, out),
              CheckpointStore::Acquire::Owner);
    EXPECT_EQ(store.quarantines(), 1u);
    EXPECT_FALSE(
        fs::exists(CheckpointStore::snapshotPath("key-c", 1)));
    store.abandon("key-c", 1);
}

TEST_F(CkptStoreTest, CorruptSnapshotWarnsOnceOnStderrNamingThePath)
{
    CheckpointStore &store = CheckpointStore::instance();
    std::vector<std::uint8_t> blob = makeBlob("key-w", 1, 9);
    blob[blob.size() / 2] ^= 0x01;
    const std::string path = CheckpointStore::snapshotPath("key-w", 1);
    ASSERT_TRUE(writeSnapshotFile(path, blob).ok());

    std::vector<std::uint8_t> out;
    ::testing::internal::CaptureStderr();
    const CheckpointStore::Acquire got = store.acquire("key-w", 1, out);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(got, CheckpointStore::Acquire::Owner);
    store.abandon("key-w", 1);

    std::vector<std::string> warnings;
    std::istringstream lines(err);
    for (std::string line; std::getline(lines, line);)
        if (line.rfind("rnr: warning: ckpt: ", 0) == 0)
            warnings.push_back(line);
    ASSERT_EQ(warnings.size(), 1u) << err;
    EXPECT_NE(warnings[0].find(path), std::string::npos) << warnings[0];
}

TEST_F(CkptStoreTest, HashCollisionReadsAsMissWithoutQuarantine)
{
    CheckpointStore &store = CheckpointStore::instance();
    // Plant another key's (valid) snapshot at key-d's slot path.
    ASSERT_TRUE(writeSnapshotFile(
                    CheckpointStore::snapshotPath("key-d", 1),
                    makeBlob("other-key", 1, 3))
                    .ok());

    std::vector<std::uint8_t> out;
    EXPECT_EQ(store.acquire("key-d", 1, out),
              CheckpointStore::Acquire::Owner);
    EXPECT_EQ(store.quarantines(), 0u);
    // The other key's snapshot was left intact.
    EXPECT_TRUE(fs::exists(CheckpointStore::snapshotPath("key-d", 1)));
    store.abandon("key-d", 1);
}

TEST_F(CkptStoreTest, SingleFlightBlocksWaitersUntilPublish)
{
    CheckpointStore &store = CheckpointStore::instance();
    std::vector<std::uint8_t> blob;
    ASSERT_EQ(store.acquire("key-e", 4, blob),
              CheckpointStore::Acquire::Owner);

    std::atomic<int> hits{0};
    std::vector<std::thread> waiters;
    for (int i = 0; i < 3; ++i)
        waiters.emplace_back([&] {
            std::vector<std::uint8_t> b;
            if (store.acquire("key-e", 4, b) ==
                CheckpointStore::Acquire::Hit)
                hits.fetch_add(1);
        });

    ASSERT_TRUE(store.publish("key-e", 4, makeBlob("key-e", 4, 1)));
    for (auto &t : waiters)
        t.join();
    EXPECT_EQ(hits.load(), 3); // everyone forked the one production
}

TEST_F(CkptStoreTest, AbandonPromotesAWaiter)
{
    CheckpointStore &store = CheckpointStore::instance();
    std::vector<std::uint8_t> blob;
    ASSERT_EQ(store.acquire("key-f", 1, blob),
              CheckpointStore::Acquire::Owner);

    std::atomic<bool> promoted{false};
    std::thread waiter([&] {
        std::vector<std::uint8_t> b;
        if (store.acquire("key-f", 1, b) ==
            CheckpointStore::Acquire::Owner) {
            promoted.store(true);
            store.abandon("key-f", 1);
        }
    });
    store.abandon("key-f", 1);
    waiter.join();
    EXPECT_TRUE(promoted.load());
}

TEST_F(CkptStoreTest, OtherProcessOwnerPublishesThenWaiterHits)
{
    // Another process owns the snapshot: acquire() must block on its
    // flock and then fork what it published, not warm up a second copy.
    const std::vector<std::uint8_t> expected = makeBlob("key-p", 0, 5);
    test::ForkedChild child([&](test::ForkedChild &self) {
        CheckpointStore &store = CheckpointStore::instance();
        std::vector<std::uint8_t> b;
        if (store.acquire("key-p", 0, b) != CheckpointStore::Acquire::Owner)
            return 1;
        self.signalReady();
        if (!self.awaitGo())
            return 2;
        return store.publish("key-p", 0, expected) ? 0 : 3;
    });
    ASSERT_TRUE(child.started());
    ASSERT_TRUE(child.awaitReady());
    // The child cannot publish before go(), so a Hit below proves that
    // acquire() waited for it.
    ASSERT_FALSE(fs::exists(CheckpointStore::snapshotPath("key-p", 0)));

    std::atomic<bool> released{false};
    std::thread releaser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        released.store(true);
        child.go();
    });
    CheckpointStore &store = CheckpointStore::instance();
    std::vector<std::uint8_t> blob;
    const CheckpointStore::Acquire got = store.acquire("key-p", 0, blob);
    const bool blocked = released.load();
    releaser.join();

    EXPECT_EQ(child.wait(), 0);
    EXPECT_EQ(got, CheckpointStore::Acquire::Hit);
    EXPECT_TRUE(blocked) << "acquire returned before the owner published";
    EXPECT_EQ(blob, expected);
    EXPECT_EQ(store.saves(), 0u);
}

TEST_F(CkptStoreTest, SigkilledOwnerProcessReleasesTheSnapshot)
{
    // A process that dies mid-warm-up must not wedge the snapshot: its
    // flock dies with it, the waiter becomes the owner and publishes.
    test::ForkedChild child([](test::ForkedChild &self) {
        std::vector<std::uint8_t> b;
        if (CheckpointStore::instance().acquire("key-k", 3, b) !=
            CheckpointStore::Acquire::Owner)
            return 1;
        self.signalReady();
        self.awaitGo(); // never sent: the parent kills us first
        return 2;
    });
    ASSERT_TRUE(child.started());
    ASSERT_TRUE(child.awaitReady());

    std::atomic<bool> killed{false};
    std::thread killer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        killed.store(true);
        child.kill();
    });
    CheckpointStore &store = CheckpointStore::instance();
    std::vector<std::uint8_t> blob;
    const CheckpointStore::Acquire got = store.acquire("key-k", 3, blob);
    const bool blocked = killed.load();
    killer.join();

    EXPECT_EQ(child.wait(), 128 + SIGKILL);
    ASSERT_EQ(got, CheckpointStore::Acquire::Owner);
    EXPECT_TRUE(blocked) << "acquire returned while the owner was alive";
    ASSERT_TRUE(store.publish("key-k", 3, makeBlob("key-k", 3, 8)));
    EXPECT_EQ(store.acquire("key-k", 3, blob),
              CheckpointStore::Acquire::Hit);
    EXPECT_EQ(blob, makeBlob("key-k", 3, 8));
}

TEST_F(CkptStoreTest, DisabledStoreIsHonoured)
{
    setenv("RNR_CKPT", "0", 1);
    EXPECT_FALSE(CheckpointStore::enabled());
    unsetenv("RNR_CKPT");
    EXPECT_TRUE(CheckpointStore::enabled());
    setenv("RNR_CKPT", "1", 1);
    EXPECT_TRUE(CheckpointStore::enabled());
    unsetenv("RNR_CKPT");
}

} // namespace
} // namespace ckpt
} // namespace rnr
