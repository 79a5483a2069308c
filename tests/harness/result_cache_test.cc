/**
 * @file
 * Crash- and concurrency-safety tests for the persistent result cache
 * (harness/result_cache.h) beyond what the sweep tests cover:
 *
 *  - a torn entry (a writer killed mid-write) is a miss, never fatal,
 *    and never touches the other entries;
 *  - entries other processes publish stay visible and intact;
 *  - a value whose iteration count disagrees with its contents or with
 *    its key is a miss, never a short result;
 *  - a sign in front of any field is a miss, never a wrapped counter;
 *  - one changed digit inside a counter is a miss, never a wrong number;
 *  - an entry filed under another model epoch is a miss.
 */
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/result_cache.h"
#include "harness/runner.h"

namespace rnr {
namespace {

ExperimentConfig
tinyConfig(std::uint32_t window = 0)
{
    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.iterations = 1;
    cfg.cores = 1;
    cfg.prefetcher =
        window ? PrefetcherKind::Rnr : PrefetcherKind::None;
    cfg.window_size = window;
    return cfg;
}

/** A result of @p iters iterations with every counter distinct. */
ExperimentResult
syntheticResult(unsigned iters)
{
    ExperimentResult r;
    r.input_bytes = 4096;
    r.target_bytes = 2048;
    for (unsigned i = 0; i < iters; ++i) {
        IterStats it;
        std::uint64_t v = 1000 * (i + 1);
#define RNR_SET_FIELD(type, name) it.name = ++v;
        RNR_ITER_STAT_FIELDS(RNR_SET_FIELD)
#undef RNR_SET_FIELD
        r.iterations.push_back(it);
    }
    return r;
}

namespace fs = std::filesystem;

struct ResultCacheFixture : ::testing::Test {
    std::string cache_path_;
    const std::string epoch_ = BlobStore::epoch();

    void
    SetUp() override
    {
        cache_path_ = ::testing::TempDir() + "result_cache_test_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      ".cache";
        fs::remove_all(cache_path_);
        setenv("RNR_CACHE", "1", 1);
        setenv("RNR_CACHE_FILE", cache_path_.c_str(), 1);
        setenv("RNR_PROGRESS", "0", 1);
        ResultCache::instance().clearForTest();
    }

    void
    TearDown() override
    {
        BlobStore::setEpochForTest(epoch_);
        fs::remove_all(cache_path_);
        setenv("RNR_CACHE", "0", 1);
        ResultCache::instance().clearForTest();
    }

    static BlobStore &
    blobs()
    {
        return ResultCache::instance().blobs();
    }

    /** Files @p value under @p key as a well-formed, checksummed entry,
     *  as another process would. */
    static void
    writeEntry(const std::string &key, const std::string &value)
    {
        fs::create_directories(blobs().root());
        const std::vector<std::uint8_t> blob =
            BlobStore::encode(key, value.data(), value.size());
        std::ofstream out(blobs().entryPath(key),
                          std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(blob.data()),
                  static_cast<std::streamsize>(blob.size()));
    }

    /** Stores @p r under @p cfg's key through the cache. */
    static void
    storeResult(const ExperimentConfig &cfg, const ExperimentResult &r)
    {
        ExperimentResult hit;
        ASSERT_EQ(ResultCache::instance().acquire(cfg, hit),
                  BlobStore::Acquire::Owner);
        ResultCache::instance().store(cfg.key(), r);
    }
};

TEST_F(ResultCacheFixture, TornFinalLineIsSkippedNotFatal)
{
    const ExperimentConfig cfg = tinyConfig();
    const ExperimentResult first = runExperiment(cfg);
    ASSERT_EQ(blobs().entryPaths().size(), 1u);

    // Simulate a writer killed mid-write: another cell's entry whose
    // value was cut short.
    const ExperimentConfig other = tinyConfig(64);
    writeEntry(other.key(), ResultCache::serialize(syntheticResult(1)));
    const std::string torn = blobs().entryPath(other.key());
    fs::resize_file(torn, fs::file_size(torn) - 7);
    ResultCache::instance().clearForTest();

    // The good entry still hits; the torn one is a counted miss and is
    // removed, so nothing ever loads it.
    const std::uint64_t before = experimentsSimulated();
    const ExperimentResult again = runExperiment(cfg);
    EXPECT_EQ(experimentsSimulated(), before);
    EXPECT_EQ(ResultCache::serialize(again),
              ResultCache::serialize(first));
    ExperimentResult out;
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(ResultCache::instance().lookup(other, out));
    ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(ResultCache::instance().corruptEntries(), 1u);
    EXPECT_FALSE(fs::exists(torn));
}

TEST_F(ResultCacheFixture, EntriesOtherProcessesPublishStayVisible)
{
    // This process runs cell A...
    runExperiment(tinyConfig());
    // ...meanwhile "another process" publishes cell B...
    const ExperimentConfig foreign = tinyConfig(64);
    const std::string value = ResultCache::serialize(syntheticResult(1));
    writeEntry(foreign.key(), value);
    // ...and this process stores cell C: B's entry survives, and this
    // process reads it although it appeared after its first lookup.
    storeResult(tinyConfig(128), syntheticResult(1));
    EXPECT_EQ(blobs().entryPaths().size(), 3u);
    ExperimentResult out;
    ASSERT_TRUE(ResultCache::instance().lookup(foreign, out));
    EXPECT_EQ(ResultCache::serialize(out), value);
}

TEST_F(ResultCacheFixture, LineWhoseIterationCountLiesIsAMiss)
{
    ExperimentConfig cfg = tinyConfig();
    cfg.iterations = 3;
    ExperimentResult out;

    // Control: an honest three-iteration value under the i3 key hits.
    const std::string honest = ResultCache::serialize(syntheticResult(3));
    writeEntry(cfg.key(), honest);
    ResultCache::instance().clearForTest();
    ASSERT_TRUE(ResultCache::instance().lookup(cfg, out));
    EXPECT_EQ(ResultCache::serialize(out), honest);

    // One bit flip of the count digit, '3' (0x33) -> '1' (0x31): the
    // value now declares one iteration and carries two more after it.
    // The entry is resealed, so only the parse can catch the lie.
    const std::string prefix = "4096 2048 0 0 ";
    ASSERT_EQ(honest.rfind(prefix, 0), 0u) << honest;
    std::string lying = honest;
    ASSERT_EQ(lying[prefix.size()], '3');
    lying[prefix.size()] ^= 0x02;
    ExperimentResult parsed;
    EXPECT_FALSE(ResultCache::deserialize(lying, parsed));
    writeEntry(cfg.key(), lying);
    ResultCache::instance().clearForTest();
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(ResultCache::instance().lookup(cfg, out));
    EXPECT_EQ(ResultCache::instance().corruptEntries(), 1u);

    // A well-formed one-iteration value filed under the i3 key is a
    // miss too: the cell reruns and store() replaces the entry.
    writeEntry(cfg.key(), ResultCache::serialize(syntheticResult(1)));
    ResultCache::instance().clearForTest();
    EXPECT_FALSE(ResultCache::instance().lookup(cfg, out));
    ::testing::internal::GetCapturedStderr();
}

TEST_F(ResultCacheFixture, SignBeforeAnyFieldIsAMiss)
{
    ExperimentConfig cfg = tinyConfig();
    cfg.iterations = 2;
    const std::string honest = ResultCache::serialize(syntheticResult(2));
    ExperimentResult parsed;
    ASSERT_TRUE(ResultCache::deserialize(honest, parsed));

    // Every field: the four byte counts, the iteration count and each
    // iteration's counters.  "-1000" read as unsigned would wrap to
    // 2^64 - 1000 and load as a hit.
    std::vector<std::size_t> starts = {0};
    for (std::size_t i = 0; i < honest.size(); ++i)
        if (honest[i] == ' ')
            starts.push_back(i + 1);
    constexpr std::size_t kFieldsPerIter = 0
#define RNR_COUNT_FIELD(type, name) +1
        RNR_ITER_STAT_FIELDS(RNR_COUNT_FIELD)
#undef RNR_COUNT_FIELD
        ;
    EXPECT_EQ(starts.size(), 5 + 2 * kFieldsPerIter);
    for (std::size_t at : starts) {
        for (const char *sign : {"-", "+"}) {
            const std::string signed_line =
                honest.substr(0, at) + sign + honest.substr(at);
            SCOPED_TRACE(signed_line);
            EXPECT_FALSE(ResultCache::deserialize(signed_line, parsed));
        }
    }

    // Through the loader, in a checksummed entry: it is dropped as
    // corrupt, not served.
    writeEntry(cfg.key(), "-" + honest);
    ResultCache::instance().clearForTest();
    ExperimentResult out;
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(ResultCache::instance().lookup(cfg, out));
    ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(ResultCache::instance().corruptEntries(), 1u);
}

TEST_F(ResultCacheFixture, DigitChangedInsideACounterIsAMiss)
{
    ExperimentConfig cfg = tinyConfig();
    cfg.iterations = 2;
    storeResult(cfg, syntheticResult(2));
    const std::string path = blobs().entryPath(cfg.key());

    // Change one decimal digit of the last counter on disk.  The value
    // still parses (the parse alone would load a wrong number), so the
    // checksum is what must turn it into a miss.
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    const std::size_t at = bytes.size() - 1;
    ASSERT_TRUE(bytes[at] >= '0' && bytes[at] <= '8') << bytes;
    ++bytes[at];
    const std::string value = ResultCache::serialize(syntheticResult(2));
    ExperimentResult parsed;
    ASSERT_TRUE(ResultCache::deserialize(
        bytes.substr(bytes.size() - value.size()), parsed));
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }

    ResultCache::instance().clearForTest();
    ExperimentResult out;
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(ResultCache::instance().lookup(cfg, out));
    ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(ResultCache::instance().corruptEntries(), 1u);
}

TEST_F(ResultCacheFixture, ResultFromAnotherEpochIsAMiss)
{
    const ExperimentConfig cfg = tinyConfig();
    BlobStore::setEpochForTest("epoch-a");
    storeResult(cfg, syntheticResult(1));

    ResultCache::instance().clearForTest(); // a new process
    BlobStore::setEpochForTest("epoch-b");
    ExperimentResult out;
    EXPECT_FALSE(ResultCache::instance().lookup(cfg, out));
    EXPECT_EQ(ResultCache::instance().corruptEntries(), 0u);

    BlobStore::setEpochForTest("epoch-a");
    EXPECT_TRUE(ResultCache::instance().lookup(cfg, out));
}

} // namespace
} // namespace rnr
