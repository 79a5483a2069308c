/**
 * @file
 * Crash- and concurrency-safety tests for the persistent result cache
 * (harness/result_cache.h) beyond what the sweep tests cover:
 *
 *  - a torn final line (a crash between write and fsync under the old
 *    scheme) is skipped, never fatal, and never clobbers good lines;
 *  - a rewrite merges lines other processes published since this
 *    process loaded the file, so two processes sharing one cache file
 *    append to, never erase, each other's results.
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

} // namespace
} // namespace rnr
