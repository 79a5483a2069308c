/**
 * @file
 * TraceStore lifecycle tests: capture/publish/hit, abort, quarantine,
 * hash-collision-as-miss, the model epoch and single-flight blocking,
 * both across threads and across processes (a fork()ed owner that
 * publishes late, and one that is SIGKILLed before it publishes).
 *
 * Every test repoints $RNR_TRACE_DIR at a fresh temp directory and calls
 * resetForTest() so counters start at zero and no in-flight state leaks
 * between tests.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "forked_child.h"
#include "sim/rng.h"
#include "test_util.h"
#include "trace/trace_buffer.h"
#include "tracestore/trace_store.h"

namespace rnr {
namespace {

namespace fs = std::filesystem;

class TraceStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = (fs::temp_directory_path() /
                 ("rnr_store_test_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name())))
                    .string();
        fs::remove_all(root_);
        setenv("RNR_TRACE_DIR", root_.c_str(), 1);
        setenv("RNR_PROGRESS", "0", 1);
        TraceStore::instance().resetForTest();
    }

    void
    TearDown() override
    {
        BlobStore::setEpochForTest(epoch_);
        TraceStore::instance().resetForTest();
        unsetenv("RNR_TRACE_DIR");
        fs::remove_all(root_);
    }

    /** A small deterministic trace with loads, stores and controls. */
    static TraceBuffer
    makeTrace(std::uint64_t seed, std::size_t n)
    {
        Rng rng(seed);
        TraceBuffer buf;
        buf.push(TraceRecord::control(RnrOp::Init));
        buf.push(TraceRecord::control(RnrOp::AddrBaseSet, 0x1000, 4096));
        for (std::size_t i = 0; i < n; ++i) {
            const Addr a = 0x1000 + rng.below(4096);
            const std::uint32_t pc = 100 + static_cast<std::uint32_t>(i % 7);
            if (i % 5 == 0)
                buf.push(TraceRecord::store(a, pc, 2));
            else
                buf.push(TraceRecord::load(a, pc, 3));
        }
        buf.push(TraceRecord::control(RnrOp::EndState));
        return buf;
    }

    /** Captures and publishes an entry for @p wkey; returns its records. */
    static std::uint64_t
    publishEntry(const std::string &wkey, unsigned iterations, unsigned cores,
                 std::size_t records_per_buf, std::uint64_t seed = 1)
    {
        TraceStore &store = TraceStore::instance();
        TraceStore::Entry entry;
        EXPECT_EQ(store.acquire(wkey, entry), TraceStore::Acquire::Owner);
        TraceStore::Capture cap =
            store.beginCapture(wkey, iterations, cores);
        std::uint64_t records = 0;
        for (unsigned it = 0; it < iterations; ++it)
            for (unsigned c = 0; c < cores; ++c) {
                TraceBuffer buf =
                    makeTrace(seed + it * 131 + c, records_per_buf);
                records += buf.size();
                EXPECT_TRUE(bool(cap.add(it, c, buf)));
            }
        EXPECT_TRUE(cap.publish(12345, 67890));
        return records;
    }

    static std::string
    entryDir(const std::string &wkey)
    {
        return TraceStore::instance().blobs().entryPath(wkey);
    }

    std::string root_;
    const std::string epoch_ = BlobStore::epoch();
};

TEST_F(TraceStoreTest, CaptureThenHitRoundTrips)
{
    TraceStore &store = TraceStore::instance();
    const std::string wkey = "pagerank:u16:w4096:i3:n2";

    const std::uint64_t records = publishEntry(wkey, 3, 2, 500);
    EXPECT_EQ(store.captures(), 1u);
    EXPECT_EQ(store.hits(), 0u);

    TraceStore::Entry entry;
    ASSERT_EQ(store.acquire(wkey, entry), TraceStore::Acquire::Hit);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(entry.key, wkey);
    EXPECT_EQ(entry.iterations, 3u);
    EXPECT_EQ(entry.cores, 2u);
    EXPECT_EQ(entry.records, records);
    EXPECT_EQ(entry.input_bytes, 12345u);
    EXPECT_EQ(entry.target_bytes, 67890u);
    EXPECT_GT(entry.raw_bytes, 0u);
    EXPECT_GT(entry.stored_bytes, 0u);
    // Delta+varint coding should beat the 32 B in-memory record.
    EXPECT_LT(entry.stored_bytes, entry.raw_bytes);

    // Every (iteration, core) file decodes to exactly what went in.
    for (unsigned it = 0; it < 3; ++it)
        for (unsigned c = 0; c < 2; ++c) {
            TraceBuffer expect = makeTrace(1 + it * 131 + c, 500);
            TraceBuffer got;
            ASSERT_TRUE(bool(test::readTraceFile(entry.tracePath(it, c), got)));
            ASSERT_EQ(got.size(), expect.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got.records()[i].addr, expect.records()[i].addr);
                EXPECT_EQ(got.records()[i].pc, expect.records()[i].pc);
                EXPECT_EQ(got.records()[i].kind, expect.records()[i].kind);
            }
        }
}

TEST_F(TraceStoreTest, AbortedCaptureLeavesNoEntryAndReleasesKey)
{
    TraceStore &store = TraceStore::instance();
    const std::string wkey = "spcg:d4000:w4096:i2:n1";

    TraceStore::Entry entry;
    ASSERT_EQ(store.acquire(wkey, entry), TraceStore::Acquire::Owner);
    {
        TraceStore::Capture cap = store.beginCapture(wkey, 2, 1);
        TraceBuffer buf = makeTrace(7, 100);
        ASSERT_TRUE(bool(cap.add(0, 0, buf)));
        // No publish: destructor aborts the half-written entry.
    }
    EXPECT_EQ(store.captures(), 0u);

    // The key is free again (a fresh acquire owns it, not deadlocks),
    // and no temp or entry directory survived the abort.
    ASSERT_EQ(store.acquire(wkey, entry), TraceStore::Acquire::Owner);
    store.beginCapture(wkey, 2, 1); // immediately aborted; releases key
    EXPECT_FALSE(fs::exists(entryDir(wkey)));
    std::size_t dirents = 0;
    if (fs::exists(root_))
        for ([[maybe_unused]] auto &d : fs::directory_iterator(root_))
            ++dirents;
    EXPECT_EQ(dirents, 0u);
}

TEST_F(TraceStoreTest, TruncatedTraceFileIsQuarantinedAndRecaptured)
{
    TraceStore &store = TraceStore::instance();
    const std::string wkey = "jacobi:d2000:w4096:i2:n1";
    publishEntry(wkey, 2, 1, 300);

    // Truncate one trace file: validation sums per-file footer records
    // against the manifest, so the entry must read as corrupt.
    TraceStore::Entry entry;
    ASSERT_EQ(store.acquire(wkey, entry), TraceStore::Acquire::Hit);
    const std::string victim = entry.tracePath(1, 0);
    const auto full = fs::file_size(victim);
    fs::resize_file(victim, full / 2);

    TraceStore::Entry again;
    EXPECT_EQ(store.acquire(wkey, again), TraceStore::Acquire::Owner);
    EXPECT_GE(store.corruptEntries(), 1u);
    EXPECT_FALSE(fs::exists(entryDir(wkey)));

    // Recapture repairs the corpus.
    TraceStore::Capture cap = store.beginCapture(wkey, 2, 1);
    for (unsigned it = 0; it < 2; ++it) {
        TraceBuffer buf = makeTrace(it, 300);
        ASSERT_TRUE(bool(cap.add(it, 0, buf)));
    }
    ASSERT_TRUE(cap.publish(1, 1));
    EXPECT_EQ(store.acquire(wkey, entry), TraceStore::Acquire::Hit);
}

TEST_F(TraceStoreTest, GarbageManifestIsQuarantined)
{
    TraceStore &store = TraceStore::instance();
    const std::string wkey = "labelprop:u14:w4096:i1:n1";
    publishEntry(wkey, 1, 1, 50);

    {
        std::ofstream m(entryDir(wkey) + "/manifest");
        m << "not a manifest\n";
    }
    TraceStore::Entry entry;
    EXPECT_EQ(store.acquire(wkey, entry), TraceStore::Acquire::Owner);
    EXPECT_GE(store.corruptEntries(), 1u);
    store.beginCapture(wkey, 1, 1); // abort; release ownership
}

TEST_F(TraceStoreTest, HashCollisionReadsAsMissWithoutQuarantine)
{
    TraceStore &store = TraceStore::instance();
    const std::string wkey = "hyperanf:u15:w4096:i1:n1";
    publishEntry(wkey, 1, 1, 50);

    // Simulate another key hashing to our directory: re-file the
    // manifest under another key.  The store must treat this as a miss
    // for wkey (the blob holds the authoritative key) but NOT corrupt:
    // the entry legitimately belongs to the other key.
    const fs::path dir = entryDir(wkey);
    std::vector<std::uint8_t> blob;
    BlobStore::Header h;
    ASSERT_TRUE(BlobStore::readFile(dir / "manifest", blob, h).ok());
    blob = BlobStore::encode("somebody:else:w1:i1:n1",
                             blob.data() + h.payload_at, h.payload_len);
    {
        std::ofstream m(dir / "manifest", std::ios::binary | std::ios::trunc);
        m.write(reinterpret_cast<const char *>(blob.data()),
                static_cast<std::streamsize>(blob.size()));
    }

    const std::uint64_t corrupt_before = store.corruptEntries();
    TraceStore::Entry entry;
    EXPECT_EQ(store.acquire(wkey, entry), TraceStore::Acquire::Owner);
    EXPECT_EQ(store.corruptEntries(), corrupt_before);
    EXPECT_TRUE(fs::exists(dir)); // the other key's entry survives...

    // ...until we publish ours, which takes the directory over.
    TraceStore::Capture cap = store.beginCapture(wkey, 1, 1);
    TraceBuffer buf = makeTrace(3, 50);
    ASSERT_TRUE(bool(cap.add(0, 0, buf)));
    ASSERT_TRUE(cap.publish(0, 0));
    ASSERT_EQ(store.acquire(wkey, entry), TraceStore::Acquire::Hit);
    EXPECT_EQ(entry.key, wkey);
}

TEST_F(TraceStoreTest, InvalidateRemovesEntry)
{
    TraceStore &store = TraceStore::instance();
    const std::string wkey = "pagerank:u12:w4096:i1:n1";
    publishEntry(wkey, 1, 1, 50);

    store.invalidate(wkey);
    EXPECT_GE(store.corruptEntries(), 1u);
    TraceStore::Entry entry;
    EXPECT_EQ(store.acquire(wkey, entry), TraceStore::Acquire::Owner);
    store.beginCapture(wkey, 1, 1); // abort; release ownership
}

TEST_F(TraceStoreTest, EntryFromAnotherEpochIsAMiss)
{
    TraceStore &store = TraceStore::instance();
    const std::string wkey = "pagerank:u12:w4096:i1:n1";
    BlobStore::setEpochForTest("epoch-a");
    publishEntry(wkey, 1, 1, 50);
    TraceStore::Entry entry;
    ASSERT_EQ(store.acquire(wkey, entry), TraceStore::Acquire::Hit);

    BlobStore::setEpochForTest("epoch-b");
    EXPECT_EQ(store.acquire(wkey, entry), TraceStore::Acquire::Owner);
    store.beginCapture(wkey, 1, 1); // abort; release ownership
    EXPECT_EQ(store.corruptEntries(), 0u);
    EXPECT_EQ(store.listEntries().size(), 1u); // epoch A's, left alone
}

TEST_F(TraceStoreTest, ListEntriesReportsTheCorpus)
{
    TraceStore &store = TraceStore::instance();
    publishEntry("a:in:w1:i1:n1", 1, 1, 40);
    publishEntry("b:in:w1:i2:n2", 2, 2, 40);

    std::vector<TraceStore::Entry> entries = store.listEntries();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].key, "a:in:w1:i1:n1");
    EXPECT_EQ(entries[1].key, "b:in:w1:i2:n2");
    EXPECT_EQ(entries[1].iterations, 2u);
    EXPECT_EQ(entries[1].cores, 2u);
    for (const auto &e : entries) {
        EXPECT_GT(e.records, 0u);
        EXPECT_GT(e.stored_bytes, 0u);
    }
}

TEST_F(TraceStoreTest, SecondThreadBlocksUntilOwnerPublishesThenHits)
{
    TraceStore &store = TraceStore::instance();
    const std::string wkey = "spcg:d8000:w4096:i1:n1";

    TraceStore::Entry entry;
    ASSERT_EQ(store.acquire(wkey, entry), TraceStore::Acquire::Owner);
    TraceStore::Capture cap = store.beginCapture(wkey, 1, 1);

    TraceStore::Acquire waiter_result = TraceStore::Acquire::Owner;
    std::thread waiter([&] {
        TraceStore::Entry e;
        waiter_result = store.acquire(wkey, e);
    });

    TraceBuffer buf = makeTrace(5, 200);
    ASSERT_TRUE(bool(cap.add(0, 0, buf)));
    ASSERT_TRUE(cap.publish(0, 0));
    waiter.join();
    EXPECT_EQ(waiter_result, TraceStore::Acquire::Hit);
    EXPECT_EQ(store.captures(), 1u);
    EXPECT_EQ(store.hits(), 1u);
}

TEST_F(TraceStoreTest, OtherProcessOwnerPublishesThenWaiterHits)
{
    // Another process (two bench binaries in one directory) owns the
    // key: acquire() must block on its flock and then replay the entry
    // it published, not capture a second copy.
    const std::string wkey = "pagerank:u16:w4096:i1:n1";
    test::ForkedChild child([&](test::ForkedChild &self) {
        TraceStore &store = TraceStore::instance();
        TraceStore::Entry e;
        if (store.acquire(wkey, e) != TraceStore::Acquire::Owner)
            return 1;
        TraceStore::Capture cap = store.beginCapture(wkey, 1, 1);
        self.signalReady();
        if (!self.awaitGo() || !cap.add(0, 0, makeTrace(9, 200)))
            return 2;
        return cap.publish(11, 22) ? 0 : 3;
    });
    ASSERT_TRUE(child.started());
    ASSERT_TRUE(child.awaitReady());
    // The child cannot publish before go(), so a Hit below proves that
    // acquire() waited for it.
    ASSERT_TRUE(TraceStore::instance().listEntries().empty());

    std::atomic<bool> released{false};
    std::thread releaser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        released.store(true);
        child.go();
    });
    TraceStore::Entry entry;
    const TraceStore::Acquire got =
        TraceStore::instance().acquire(wkey, entry);
    const bool blocked = released.load();
    releaser.join();

    EXPECT_EQ(child.wait(), 0);
    EXPECT_EQ(got, TraceStore::Acquire::Hit);
    EXPECT_TRUE(blocked) << "acquire returned before the owner published";
    EXPECT_EQ(entry.records, 203u); // Init + AddrBaseSet + 200 + EndState
    EXPECT_EQ(entry.input_bytes, 11u);
    EXPECT_EQ(TraceStore::instance().captures(), 0u);
    EXPECT_EQ(TraceStore::instance().hits(), 1u);
}

TEST_F(TraceStoreTest, SigkilledOwnerProcessReleasesTheKey)
{
    // A process that dies mid-capture must not wedge the key: its flock
    // dies with it, the waiter becomes the owner and publishes.
    const std::string wkey = "spcg:d8000:w4096:i1:n1";
    test::ForkedChild child([&](test::ForkedChild &self) {
        TraceStore &store = TraceStore::instance();
        TraceStore::Entry e;
        if (store.acquire(wkey, e) != TraceStore::Acquire::Owner)
            return 1;
        TraceStore::Capture cap = store.beginCapture(wkey, 1, 1);
        cap.add(0, 0, makeTrace(4, 100));
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
    TraceStore &store = TraceStore::instance();
    TraceStore::Entry entry;
    const TraceStore::Acquire got = store.acquire(wkey, entry);
    const bool blocked = killed.load();
    killer.join();

    EXPECT_EQ(child.wait(), 128 + SIGKILL);
    ASSERT_EQ(got, TraceStore::Acquire::Owner);
    EXPECT_TRUE(blocked) << "acquire returned while the owner was alive";
    TraceStore::Capture cap = store.beginCapture(wkey, 1, 1);
    ASSERT_TRUE(bool(cap.add(0, 0, makeTrace(5, 100))));
    ASSERT_TRUE(cap.publish(0, 0));
    EXPECT_EQ(store.acquire(wkey, entry), TraceStore::Acquire::Hit);
    EXPECT_EQ(store.listEntries().size(), 1u);
}

TEST_F(TraceStoreTest, HashNameIsStable16HexDigits)
{
    const std::string a = BlobStore::hashName("pagerank:u16:w4096:i3:n2");
    const std::string b = BlobStore::hashName("pagerank:u16:w4096:i3:n2");
    const std::string c = BlobStore::hashName("pagerank:u16:w4096:i3:n4");
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a.size(), 16u);
    for (char ch : a)
        EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(ch))) << a;
}

TEST_F(TraceStoreTest, EnvControlsEnableAndDir)
{
    EXPECT_EQ(TraceStore::rootPath(), root_);
    EXPECT_TRUE(TraceStore::enabled());
    setenv("RNR_TRACE_STORE", "0", 1);
    EXPECT_FALSE(TraceStore::enabled());
    unsetenv("RNR_TRACE_STORE");
    EXPECT_TRUE(TraceStore::enabled());
}

} // namespace
} // namespace rnr
