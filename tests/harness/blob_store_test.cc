/**
 * @file
 * BlobStore tests: the machinery the result, trace and snapshot stores
 * share.  Publish/hit, quarantine, hash-collision-as-miss, the model
 * epoch, gc, and single-flight across threads and across processes (a
 * fork()ed owner that publishes late, and one that is SIGKILLed before
 * it publishes), with persistence on and off.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "forked_child.h"
#include "harness/blob_store.h"

namespace rnr {
namespace {

namespace fs = std::filesystem;

std::string g_root;
bool g_enabled = true;

std::string
testRoot()
{
    return g_root;
}

bool
testEnabled()
{
    return g_enabled;
}

class BlobStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        g_root = (fs::temp_directory_path() /
                  ("rnr_blob_store_test_" +
                   std::string(::testing::UnitTest::GetInstance()
                                   ->current_test_info()
                                   ->name())))
                     .string();
        fs::remove_all(g_root);
        g_enabled = true;
    }

    void
    TearDown() override
    {
        BlobStore::setEpochForTest(epoch_);
        fs::remove_all(g_root);
    }

    static std::vector<std::uint8_t>
    blobOf(const std::string &key, const std::string &payload)
    {
        return BlobStore::encode(key, payload.data(), payload.size());
    }

    /** acquire() whose hit() reads the entry's payload into @p out. */
    static BlobStore::Acquire
    acquire(BlobStore &store, const std::string &key, std::string &out)
    {
        return store.acquire(key, [&] {
            std::vector<std::uint8_t> blob;
            BlobStore::Header h;
            if (!store.read(key, blob, h))
                return false;
            out.assign(reinterpret_cast<const char *>(blob.data()) +
                           h.payload_at,
                       h.payload_len);
            return true;
        });
    }

    const std::string epoch_ = BlobStore::epoch();
    BlobStore store_{"test", &testRoot, &testEnabled, ".blob"};
};

TEST_F(BlobStoreTest, PublishThenHitRoundTrips)
{
    std::string got;
    ASSERT_EQ(acquire(store_, "key-a", got), BlobStore::Acquire::Owner);
    ASSERT_TRUE(store_.publish("key-a", blobOf("key-a", "payload a")));
    // The production lock file is removed once the owner is done.
    EXPECT_FALSE(
        fs::exists(g_root + "/" + BlobStore::hashName("key-a") + ".lock"));
    EXPECT_TRUE(fs::exists(store_.entryPath("key-a")));

    EXPECT_EQ(acquire(store_, "key-a", got), BlobStore::Acquire::Hit);
    EXPECT_EQ(got, "payload a");
    EXPECT_EQ(store_.entryPaths(),
              std::vector<std::string>{store_.entryPath("key-a")});
}

TEST_F(BlobStoreTest, CorruptEntryIsQuarantinedWithOneWarning)
{
    std::vector<std::uint8_t> blob = blobOf("key-c", "some payload");
    blob[blob.size() / 2] ^= 0x01;
    fs::create_directories(g_root);
    {
        std::ofstream out(store_.entryPath("key-c"), std::ios::binary);
        out.write(reinterpret_cast<const char *>(blob.data()),
                  static_cast<std::streamsize>(blob.size()));
    }

    std::string got;
    ::testing::internal::CaptureStderr();
    const BlobStore::Acquire a = acquire(store_, "key-c", got);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(a, BlobStore::Acquire::Owner);
    store_.abandon("key-c");
    EXPECT_EQ(store_.quarantines(), 1u);
    EXPECT_FALSE(fs::exists(store_.entryPath("key-c")));

    std::vector<std::string> warnings;
    std::istringstream lines(err);
    for (std::string line; std::getline(lines, line);)
        if (line.rfind("rnr: warning: test: ", 0) == 0)
            warnings.push_back(line);
    ASSERT_EQ(warnings.size(), 1u) << err;
    EXPECT_NE(warnings[0].find(store_.entryPath("key-c")), std::string::npos)
        << warnings[0];
}

TEST_F(BlobStoreTest, HashCollisionReadsAsMissWithoutQuarantine)
{
    // Plant another key's (valid) blob at key-d's path.
    fs::create_directories(g_root);
    const std::vector<std::uint8_t> other = blobOf("other-key", "theirs");
    {
        std::ofstream out(store_.entryPath("key-d"), std::ios::binary);
        out.write(reinterpret_cast<const char *>(other.data()),
                  static_cast<std::streamsize>(other.size()));
    }
    std::string got;
    EXPECT_EQ(acquire(store_, "key-d", got), BlobStore::Acquire::Owner);
    EXPECT_EQ(store_.quarantines(), 0u);
    EXPECT_TRUE(fs::exists(store_.entryPath("key-d")));
    store_.abandon("key-d");
}

TEST_F(BlobStoreTest, EntryFromAnotherEpochIsAMiss)
{
    BlobStore::setEpochForTest("epoch-a");
    std::string got;
    ASSERT_EQ(acquire(store_, "key-e", got), BlobStore::Acquire::Owner);
    ASSERT_TRUE(store_.publish("key-e", blobOf("key-e", "from a")));
    ASSERT_EQ(acquire(store_, "key-e", got), BlobStore::Acquire::Hit);

    BlobStore::setEpochForTest("epoch-b");
    EXPECT_EQ(acquire(store_, "key-e", got), BlobStore::Acquire::Owner);
    store_.abandon("key-e");
    EXPECT_EQ(store_.quarantines(), 0u);

    BlobStore::setEpochForTest("epoch-a");
    EXPECT_EQ(acquire(store_, "key-e", got), BlobStore::Acquire::Hit);
    EXPECT_EQ(got, "from a");
}

TEST_F(BlobStoreTest, SingleFlightBlocksWaitersUntilPublish)
{
    std::string got;
    ASSERT_EQ(acquire(store_, "key-s", got), BlobStore::Acquire::Owner);

    std::atomic<int> hits{0};
    std::vector<std::thread> waiters;
    for (int i = 0; i < 3; ++i)
        waiters.emplace_back([&] {
            std::string mine;
            if (acquire(store_, "key-s", mine) == BlobStore::Acquire::Hit &&
                mine == "one")
                hits.fetch_add(1);
        });
    ASSERT_TRUE(store_.publish("key-s", blobOf("key-s", "one")));
    for (auto &t : waiters)
        t.join();
    EXPECT_EQ(hits.load(), 3); // everyone got the one production
}

TEST_F(BlobStoreTest, AbandonPromotesAWaiter)
{
    std::string got;
    ASSERT_EQ(acquire(store_, "key-f", got), BlobStore::Acquire::Owner);

    std::atomic<bool> promoted{false};
    std::thread waiter([&] {
        std::string mine;
        if (acquire(store_, "key-f", mine) == BlobStore::Acquire::Owner) {
            promoted.store(true);
            store_.abandon("key-f");
        }
    });
    store_.abandon("key-f");
    waiter.join();
    EXPECT_TRUE(promoted.load());
}

TEST_F(BlobStoreTest, DisabledStoreKeepsInProcessSingleFlight)
{
    // Persistence off: no file is read or written, but a second caller
    // of an owned key still waits for the owner.
    g_enabled = false;
    std::atomic<int> done{0};
    ASSERT_EQ(store_.acquire("key-n", [] { return false; }),
              BlobStore::Acquire::Owner);
    std::thread waiter([&] {
        if (store_.acquire("key-n", [&] { return done.load() == 1; }) ==
            BlobStore::Acquire::Hit)
            done.store(2);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(done.load(), 0) << "waiter did not wait for the owner";
    done.store(1);
    store_.abandon("key-n");
    waiter.join();
    EXPECT_EQ(done.load(), 2);
    EXPECT_FALSE(fs::exists(g_root));
}

TEST_F(BlobStoreTest, OtherProcessOwnerPublishesThenWaiterHits)
{
    // Another process owns the key: acquire() must block on its flock
    // and then read what it published, not produce a second copy.
    test::ForkedChild child([&](test::ForkedChild &self) {
        std::string mine;
        if (acquire(store_, "key-p", mine) != BlobStore::Acquire::Owner)
            return 1;
        self.signalReady();
        if (!self.awaitGo())
            return 2;
        return store_.publish("key-p", blobOf("key-p", "child")) ? 0 : 3;
    });
    ASSERT_TRUE(child.started());
    ASSERT_TRUE(child.awaitReady());
    // The child cannot publish before go(), so a Hit below proves that
    // acquire() waited for it.
    ASSERT_FALSE(fs::exists(store_.entryPath("key-p")));

    std::atomic<bool> released{false};
    std::thread releaser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        released.store(true);
        child.go();
    });
    std::string got;
    const BlobStore::Acquire a = acquire(store_, "key-p", got);
    const bool blocked = released.load();
    releaser.join();

    EXPECT_EQ(child.wait(), 0);
    EXPECT_EQ(a, BlobStore::Acquire::Hit);
    EXPECT_TRUE(blocked) << "acquire returned before the owner published";
    EXPECT_EQ(got, "child");
}

TEST_F(BlobStoreTest, SigkilledOwnerProcessReleasesTheKey)
{
    // A process that dies mid-production must not wedge the key: its
    // flock dies with it, the waiter becomes the owner and publishes.
    test::ForkedChild child([&](test::ForkedChild &self) {
        std::string mine;
        if (acquire(store_, "key-k", mine) != BlobStore::Acquire::Owner)
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
    std::string got;
    const BlobStore::Acquire a = acquire(store_, "key-k", got);
    const bool blocked = killed.load();
    killer.join();

    EXPECT_EQ(child.wait(), 128 + SIGKILL);
    ASSERT_EQ(a, BlobStore::Acquire::Owner);
    EXPECT_TRUE(blocked) << "acquire returned while the owner was alive";
    ASSERT_TRUE(store_.publish("key-k", blobOf("key-k", "parent")));
    EXPECT_EQ(acquire(store_, "key-k", got), BlobStore::Acquire::Hit);
    EXPECT_EQ(got, "parent");
}

TEST_F(BlobStoreTest, GcRemovesCorruptAndStaleEntries)
{
    std::string got;
    for (const char *key : {"good", "old-epoch", "corrupt"}) {
        if (std::string(key) == "old-epoch")
            BlobStore::setEpochForTest("some-older-model");
        ASSERT_EQ(acquire(store_, key, got), BlobStore::Acquire::Owner);
        ASSERT_TRUE(store_.publish(key, blobOf(key, key)));
        BlobStore::setEpochForTest(epoch_);
    }
    fs::resize_file(store_.entryPath("corrupt"), 20);
    { // a temp file from a publish that died before its rename
        std::ofstream out(g_root + "/.tmp.0123456789abcdef.999");
        out << "partial";
    }

    const BlobStore::GcResult r = store_.gc(0);
    EXPECT_EQ(r.corrupt, 1u);
    EXPECT_EQ(r.stale, 2u); // the temp file and the old epoch's entry
    EXPECT_EQ(r.evicted, 0u);
    EXPECT_EQ(store_.entryPaths(),
              std::vector<std::string>{store_.entryPath("good")});
    EXPECT_EQ(r.kept_bytes, fs::file_size(store_.entryPath("good")));
}

TEST_F(BlobStoreTest, GcEvictsOldestFirst)
{
    std::string got;
    const std::string payload(1000, 'x');
    for (const char *key : {"oldest", "middle", "newest"}) {
        ASSERT_EQ(acquire(store_, key, got), BlobStore::Acquire::Owner);
        ASSERT_TRUE(store_.publish(key, blobOf(key, payload)));
    }
    // Order the entries by age explicitly: publishes within one clock
    // tick can share an mtime.
    const auto now = fs::file_time_type::clock::now();
    fs::last_write_time(store_.entryPath("oldest"),
                        now - std::chrono::hours(2));
    fs::last_write_time(store_.entryPath("middle"),
                        now - std::chrono::hours(1));

    const std::uint64_t one = fs::file_size(store_.entryPath("newest"));
    const BlobStore::GcResult r = store_.gc(2 * one);
    EXPECT_EQ(r.evicted, 1u);
    EXPECT_EQ(r.kept_bytes, 2 * one);
    EXPECT_FALSE(fs::exists(store_.entryPath("oldest")));
    EXPECT_TRUE(fs::exists(store_.entryPath("middle")));
    EXPECT_TRUE(fs::exists(store_.entryPath("newest")));
}

} // namespace
} // namespace rnr
