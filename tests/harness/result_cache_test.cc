/**
 * @file
 * Crash- and concurrency-safety tests for the persistent result cache
 * (harness/result_cache.h) beyond what the sweep tests cover:
 *
 *  - a torn final line (a crash between write and fsync under the old
 *    scheme) is skipped, never fatal, and never clobbers good lines;
 *  - a rewrite merges lines other processes published since this
 *    process loaded the file, so two processes sharing one cache file
 *    append to, never erase, each other's results;
 *  - a line whose iteration count disagrees with its contents or with
 *    its key is a miss, never a short result;
 *  - a sign in front of any field is a miss, never a wrapped counter.
 */
#include <cstdio>
#include <fstream>
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

struct ResultCacheFixture : ::testing::Test {
    std::string cache_path_;

    void
    SetUp() override
    {
        cache_path_ = ::testing::TempDir() + "result_cache_test_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      ".cache";
        std::remove(cache_path_.c_str());
        std::remove((cache_path_ + ".lock").c_str());
        setenv("RNR_CACHE", "1", 1);
        setenv("RNR_CACHE_FILE", cache_path_.c_str(), 1);
        setenv("RNR_PROGRESS", "0", 1);
        ResultCache::instance().clearForTest();
    }

    void
    TearDown() override
    {
        std::remove(cache_path_.c_str());
        std::remove((cache_path_ + ".lock").c_str());
        setenv("RNR_CACHE", "0", 1);
        ResultCache::instance().clearForTest();
    }

    std::vector<std::string>
    cacheFileLines() const
    {
        std::vector<std::string> lines;
        std::ifstream in(cache_path_);
        std::string line;
        while (std::getline(in, line)) {
            if (!line.empty())
                lines.push_back(line);
        }
        return lines;
    }

    void
    writeCacheFile(const std::string &key, const std::string &value) const
    {
        std::ofstream out(cache_path_, std::ios::trunc);
        out << key << "|" << value << "\n";
    }
};

TEST_F(ResultCacheFixture, TornFinalLineIsSkippedNotFatal)
{
    const ExperimentConfig cfg = tinyConfig();
    const ExperimentResult first = runExperiment(cfg);
    ASSERT_EQ(cacheFileLines().size(), 1u);

    // Simulate a writer killed mid-line: a second entry whose value
    // payload was cut short, with no trailing newline.
    {
        std::ofstream out(cache_path_, std::ios::app);
        const ExperimentConfig other = tinyConfig(64);
        out << other.key() << "|12 34"; // truncated, torn, unterminated
    }
    ResultCache::instance().clearForTest();

    // The surviving good line still hits; the torn one is counted.
    const std::uint64_t before = experimentsSimulated();
    const ExperimentResult again = runExperiment(cfg);
    EXPECT_EQ(experimentsSimulated(), before);
    EXPECT_EQ(ResultCache::serialize(again),
              ResultCache::serialize(first));
    EXPECT_GE(ResultCache::instance().corruptLinesSkipped(), 1u);

    // And the next rewrite drops the torn line instead of propagating
    // it: every line in the healed file parses.
    runExperiment(tinyConfig(128));
    for (const std::string &line : cacheFileLines()) {
        const auto bar = line.find('|');
        ASSERT_NE(bar, std::string::npos) << line;
        ExperimentResult parsed;
        EXPECT_TRUE(
            ResultCache::deserialize(line.substr(bar + 1), parsed))
            << line;
    }
}

TEST_F(ResultCacheFixture, RewriteMergesLinesPublishedByOtherProcesses)
{
    // Capture a valid foreign line by running a different cell against
    // a scratch cache file.
    const std::string scratch = cache_path_ + ".scratch";
    setenv("RNR_CACHE_FILE", scratch.c_str(), 1);
    ResultCache::instance().clearForTest();
    runExperiment(tinyConfig(64));
    std::string foreign_line;
    {
        std::ifstream in(scratch);
        ASSERT_TRUE(std::getline(in, foreign_line));
    }
    std::remove(scratch.c_str());
    std::remove((scratch + ".lock").c_str());

    // This "process" loads the main file (empty), runs cell A...
    setenv("RNR_CACHE_FILE", cache_path_.c_str(), 1);
    ResultCache::instance().clearForTest();
    runExperiment(tinyConfig());
    ASSERT_EQ(cacheFileLines().size(), 1u);

    // ...meanwhile "another process" publishes the foreign line...
    {
        std::ofstream out(cache_path_, std::ios::app);
        out << foreign_line << "\n";
    }

    // ...and this process's next store must keep it: the rewrite
    // re-merges the on-disk file under the lock instead of clobbering
    // it with this process's stale view.
    runExperiment(tinyConfig(128));
    const std::vector<std::string> lines = cacheFileLines();
    EXPECT_EQ(lines.size(), 3u);
    bool saw_foreign = false;
    for (const std::string &line : lines)
        saw_foreign = saw_foreign || line == foreign_line;
    EXPECT_TRUE(saw_foreign)
        << "the foreign process's line was clobbered by the rewrite";
}

TEST_F(ResultCacheFixture, LineWhoseIterationCountLiesIsAMiss)
{
    ExperimentConfig cfg = tinyConfig();
    cfg.iterations = 3;
    ExperimentResult out;

    // Control: an honest three-iteration line under the i3 key hits.
    const std::string honest = ResultCache::serialize(syntheticResult(3));
    writeCacheFile(cfg.key(), honest);
    ResultCache::instance().clearForTest();
    ASSERT_TRUE(ResultCache::instance().lookup(cfg, out));
    EXPECT_EQ(ResultCache::serialize(out), honest);

    // One bit flip of the count digit, '3' (0x33) -> '1' (0x31): the
    // line now declares one iteration and carries two more after it.
    const std::string prefix = "4096 2048 0 0 ";
    ASSERT_EQ(honest.rfind(prefix, 0), 0u) << honest;
    std::string lying = honest;
    ASSERT_EQ(lying[prefix.size()], '3');
    lying[prefix.size()] ^= 0x02;
    ExperimentResult parsed;
    EXPECT_FALSE(ResultCache::deserialize(lying, parsed));
    writeCacheFile(cfg.key(), lying);
    ResultCache::instance().clearForTest();
    EXPECT_FALSE(ResultCache::instance().lookup(cfg, out));
    EXPECT_EQ(ResultCache::instance().corruptLinesSkipped(), 1u);

    // A well-formed one-iteration line filed under the i3 key is a
    // miss too: the cell reruns and rewrites the line.
    writeCacheFile(cfg.key(), ResultCache::serialize(syntheticResult(1)));
    ResultCache::instance().clearForTest();
    EXPECT_FALSE(ResultCache::instance().lookup(cfg, out));
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

    // Through the loader: the line is skipped as corrupt, not served.
    writeCacheFile(cfg.key(), "-" + honest);
    ResultCache::instance().clearForTest();
    ExperimentResult out;
    EXPECT_FALSE(ResultCache::instance().lookup(cfg, out));
    EXPECT_EQ(ResultCache::instance().corruptLinesSkipped(), 1u);
}

} // namespace
} // namespace rnr
