/**
 * @file
 * Concurrency, determinism and persistence tests for the parallel sweep
 * subsystem (harness/sweep.h + harness/result_cache.h):
 *
 *  - single-flight: N threads asking for one key run one simulation;
 *  - N distinct keys all complete and persist as N well-formed entries;
 *  - corrupt cache entries are skipped, never fatal;
 *  - RNR_JOBS=1 and RNR_JOBS=8 sweeps are bit-identical per cell;
 *  - with more cells than threads every cell runs exactly once;
 *  - a throwing cell is rethrown by run() after every thread joins;
 *  - the JSON export writes the whole batch.
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/result_cache.h"
#include "harness/runner.h"
#include "harness/sweep.h"

namespace rnr {
namespace {

/** A cheap cell: one iteration on one core. */
ExperimentConfig
tinyConfig(PrefetcherKind kind = PrefetcherKind::None,
           std::uint32_t window = 0)
{
    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.iterations = 1;
    cfg.cores = 1;
    cfg.prefetcher = kind;
    cfg.window_size = window;
    return cfg;
}

struct SweepFixture : ::testing::Test {
    std::string cache_path_;

    void
    SetUp() override
    {
        // Unique per-test cache file; nothing leaks between tests.
        cache_path_ = ::testing::TempDir() + "sweep_test_" +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name() +
                      ".cache";
        std::filesystem::remove_all(cache_path_);
        setenv("RNR_CACHE", "1", 1);
        setenv("RNR_CACHE_FILE", cache_path_.c_str(), 1);
        setenv("RNR_PROGRESS", "0", 1);
        unsetenv("RNR_JSON_OUT");
        unsetenv("RNR_JOBS");
        ResultCache::instance().clearForTest();
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(cache_path_);
        setenv("RNR_CACHE", "0", 1);
        ResultCache::instance().clearForTest();
    }

    /** The value of every stored entry. */
    static std::vector<std::string>
    storedValues()
    {
        std::vector<std::string> values;
        for (const std::string &path :
             ResultCache::instance().blobs().entryPaths()) {
            std::vector<std::uint8_t> blob;
            BlobStore::Header h;
            if (BlobStore::readFile(path, blob, h).ok())
                values.emplace_back(
                    reinterpret_cast<const char *>(blob.data()) +
                        h.payload_at,
                    h.payload_len);
        }
        return values;
    }

    /** Overwrites @p cfg's stored entry with @p bytes. */
    static void
    vandalise(const ExperimentConfig &cfg, const std::string &bytes)
    {
        std::ofstream out(ResultCache::instance().blobs().entryPath(cfg.key()),
                          std::ios::binary | std::ios::trunc);
        out << bytes;
    }
};

TEST_F(SweepFixture, SameKeyFromManyThreadsSimulatesExactlyOnce)
{
    setenv("RNR_CACHE", "0", 1);
    ResultCache::instance().clearForTest();

    const ExperimentConfig cfg = tinyConfig();
    const std::uint64_t before = experimentsSimulated();

    constexpr unsigned kThreads = 8;
    std::vector<std::string> serialized(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            serialized[t] =
                ResultCache::serialize(runExperiment(cfg));
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(experimentsSimulated(), before + 1);
    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(serialized[t], serialized[0]) << "thread " << t;
}

TEST_F(SweepFixture, DistinctKeysAllCompleteAndPersistWellFormed)
{
    std::vector<ExperimentConfig> cells;
    for (std::uint32_t w : {16u, 32u, 64u, 128u})
        cells.push_back(tinyConfig(PrefetcherKind::Rnr, w));

    SweepOptions opts;
    opts.jobs = 4;
    opts.progress = 0;
    SweepRunner runner(opts);
    runner.add(cells);
    const std::vector<ExperimentResult> results = runner.run();

    ASSERT_EQ(results.size(), cells.size());
    EXPECT_EQ(runner.stats().simulated, cells.size());
    EXPECT_EQ(runner.stats().cache_hits, 0u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].config.key(), cells[i].key());
        EXPECT_FALSE(results[i].iterations.empty());
    }

    const std::vector<std::string> values = storedValues();
    ASSERT_EQ(values.size(), cells.size());
    for (const std::string &value : values) {
        ExperimentResult parsed;
        EXPECT_TRUE(ResultCache::deserialize(value, parsed)) << value;
    }

    // A second sweep over the same cells is pure cache hits.
    SweepRunner warm(opts);
    warm.add(cells);
    warm.run();
    EXPECT_EQ(warm.stats().simulated, 0u);
    EXPECT_EQ(warm.stats().cache_hits, cells.size());
}

TEST_F(SweepFixture, CorruptCacheLinesAreSkippedNotFatal)
{
    const ExperimentConfig cfg = tinyConfig();
    const ExperimentResult first = runExperiment(cfg);

    // Vandalise three other cells' entries: junk, an empty file and a
    // truncated good entry.
    std::vector<ExperimentConfig> others;
    for (std::uint32_t w : {16u, 32u, 64u})
        others.push_back(tinyConfig(PrefetcherKind::Rnr, w));
    vandalise(others[0], "not a cache entry at all\n");
    vandalise(others[1], "");
    const std::vector<std::uint8_t> good = BlobStore::encode(
        others[2].key(), "1 2 3 4 5", 9);
    vandalise(others[2], std::string(good.begin(), good.end() - 3));
    ResultCache::instance().clearForTest();

    const std::uint64_t before = experimentsSimulated();
    const ExperimentResult again = runExperiment(cfg);
    EXPECT_EQ(experimentsSimulated(), before)
        << "the surviving good entry should have been used";
    EXPECT_EQ(ResultCache::serialize(again),
              ResultCache::serialize(first));
    ::testing::internal::CaptureStderr();
    for (const ExperimentConfig &other : others) {
        ExperimentResult out;
        EXPECT_FALSE(ResultCache::instance().lookup(other, out));
    }
    ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(ResultCache::instance().corruptEntries(), 3u);
}

TEST_F(SweepFixture, JobCountDoesNotChangeResults)
{
    setenv("RNR_CACHE", "0", 1);

    std::vector<ExperimentConfig> cells;
    for (PrefetcherKind k :
         {PrefetcherKind::None, PrefetcherKind::Stride,
          PrefetcherKind::Rnr}) {
        ExperimentConfig cfg = tinyConfig(k);
        cfg.iterations = 2;
        cfg.cores = 2;
        cells.push_back(cfg);
    }

    auto sweepWith = [&](unsigned jobs) {
        ResultCache::instance().clearForTest();
        SweepOptions opts;
        opts.jobs = jobs;
        opts.progress = 0;
        std::vector<std::string> out;
        for (const ExperimentResult &r : runSweep(cells, opts))
            out.push_back(ResultCache::serialize(r));
        return out;
    };

    const std::vector<std::string> serial = sweepWith(1);
    const std::vector<std::string> parallel = sweepWith(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i])
            << "cell " << cells[i].key()
            << " diverged between RNR_JOBS=1 and RNR_JOBS=8";
}

TEST_F(SweepFixture, MoreCellsThanThreadsEachRunExactlyOnce)
{
    setenv("RNR_CACHE", "0", 1);
    ResultCache::instance().clearForTest();

    std::vector<ExperimentConfig> cells;
    for (std::uint32_t w : {16u, 32u, 64u, 128u, 256u, 512u})
        cells.push_back(tinyConfig(PrefetcherKind::Rnr, w));

    SweepOptions opts;
    opts.jobs = 2;
    opts.progress = 0;
    SweepRunner runner(opts);
    runner.add(cells);
    const std::uint64_t before = experimentsSimulated();
    const std::vector<ExperimentResult> results = runner.run();

    EXPECT_EQ(experimentsSimulated(), before + cells.size())
        << "every cell must be simulated once, none twice";
    EXPECT_EQ(runner.stats().simulated, cells.size());
    EXPECT_EQ(runner.stats().cache_hits, 0u);
    ASSERT_EQ(results.size(), cells.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].config.key(), cells[i].key()) << i;
        EXPECT_FALSE(results[i].iterations.empty()) << i;
    }
}

TEST_F(SweepFixture, ThrowingCellIsRethrownAfterEveryThreadJoins)
{
    setenv("RNR_CACHE", "0", 1);
    ResultCache::instance().clearForTest();

    ExperimentConfig bad = tinyConfig();
    bad.app = "no-such-app";
    SweepOptions opts;
    opts.jobs = 2;
    opts.progress = 0;
    SweepRunner runner(opts);
    runner.add(bad);
    runner.add(tinyConfig(PrefetcherKind::Stride));
    runner.add(tinyConfig(PrefetcherKind::Rnr));

    EXPECT_THROW(runner.run(), std::invalid_argument);
    // The other worker kept draining the batch: both good cells ran,
    // and stats() was filled in before the rethrow.
    EXPECT_EQ(runner.stats().cells, 3u);
    EXPECT_EQ(runner.stats().simulated, 2u);
    EXPECT_EQ(runner.stats().cache_hits, 0u);
    EXPECT_GT(runner.stats().elapsed_sec, 0.0);
}

TEST_F(SweepFixture, DuplicateConfigsFoldIntoOneCell)
{
    SweepOptions opts;
    opts.progress = 0;
    SweepRunner runner(opts);
    runner.add(tinyConfig());
    runner.add(tinyConfig());
    runner.add(tinyConfig());
    const auto results = runner.run();
    EXPECT_EQ(results.size(), 1u);
    EXPECT_EQ(runner.stats().duplicates, 2u);
    EXPECT_EQ(runner.stats().cells, 1u);
}

TEST_F(SweepFixture, JsonExportWritesTheWholeBatch)
{
    const std::string json_path =
        ::testing::TempDir() + "sweep_test_export.json";
    std::remove(json_path.c_str());

    SweepOptions opts;
    opts.progress = 0;
    opts.json_out = json_path;
    opts.label = "unit";
    const std::vector<ExperimentConfig> cells = {
        tinyConfig(PrefetcherKind::None),
        tinyConfig(PrefetcherKind::Stride)};
    runSweep(cells, opts);

    std::ifstream in(json_path);
    ASSERT_TRUE(in.good()) << json_path;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string body = buf.str();
    EXPECT_NE(body.find("\"schema\": \"rnr-sweep-v2\""),
              std::string::npos);
    EXPECT_NE(body.find("\"label\": \"unit\""), std::string::npos);
    EXPECT_NE(body.find("\"host\""), std::string::npos);
    EXPECT_NE(body.find("\"wall_sec\""), std::string::npos);
    for (const ExperimentConfig &cfg : cells)
        EXPECT_NE(body.find(cfg.key()), std::string::npos)
            << cfg.key();
    EXPECT_NE(body.find("\"cycles\""), std::string::npos);
    std::remove(json_path.c_str());
}

TEST_F(SweepFixture, JsonExportRoundTripsThroughTheLoader)
{
    const std::string json_path =
        ::testing::TempDir() + "sweep_test_roundtrip.json";
    std::remove(json_path.c_str());

    SweepOptions opts;
    opts.progress = 0;
    opts.json_out = json_path;
    opts.label = "roundtrip";
    const std::vector<ExperimentConfig> cells = {
        tinyConfig(PrefetcherKind::None),
        tinyConfig(PrefetcherKind::Rnr, 64)};
    const std::vector<ExperimentResult> written = runSweep(cells, opts);

    std::vector<ExperimentResult> loaded;
    std::string label, error;
    SweepHostInfo host;
    ASSERT_TRUE(readResultsJson(json_path, loaded, &label, &host, &error))
        << error;
    EXPECT_EQ(label, "roundtrip");
    EXPECT_GT(host.wall_sec, 0.0);
    ASSERT_EQ(loaded.size(), written.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_EQ(loaded[i].config.key(), written[i].config.key());
        // The full iteration payload survives: serialization through
        // the cache codec is the strongest equality we have.
        EXPECT_EQ(ResultCache::serialize(loaded[i]),
                  ResultCache::serialize(written[i]))
            << loaded[i].config.key();
    }
    std::remove(json_path.c_str());
}

TEST(SweepJsonLoaderTest, AcceptsLegacyV1Documents)
{
    // Hand-written rnr-sweep-v1 document: no "host" object, old schema
    // string.  The loader must stay backward compatible.
    const std::string json_path =
        ::testing::TempDir() + "sweep_test_legacy_v1.json";
    {
        std::ofstream out(json_path);
        out << R"({
  "schema": "rnr-sweep-v1",
  "label": "legacy",
  "cells": [
    {
      "key": "pagerank:amazon:i1:c1:pf=none:w0:ctl=none",
      "config": {
        "app": "pagerank", "input": "amazon",
        "iterations": 1, "cores": 1,
        "prefetcher": "none", "window_size": 0, "control": "none"
      },
      "input_bytes": 4096,
      "seq_table_bytes": 0,
      "div_table_bytes": 0,
      "iterations": [
        {"cycles": 1234, "instructions": 1000}
      ]
    }
  ]
})";
    }

    std::vector<ExperimentResult> loaded;
    std::string label, error;
    SweepHostInfo host;
    ASSERT_TRUE(readResultsJson(json_path, loaded, &label, &host, &error))
        << error;
    EXPECT_EQ(label, "legacy");
    EXPECT_DOUBLE_EQ(host.wall_sec, 0.0); // v1 carries no host info
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].config.app, "pagerank");
    EXPECT_EQ(loaded[0].config.prefetcher, PrefetcherKind::None);
    EXPECT_EQ(loaded[0].input_bytes, 4096u);
    ASSERT_EQ(loaded[0].iterations.size(), 1u);
    EXPECT_EQ(loaded[0].iterations[0].cycles, 1234u);
    EXPECT_EQ(loaded[0].iterations[0].instructions, 1000u);
    std::remove(json_path.c_str());
}

TEST(SweepJsonLoaderTest, RejectsUnknownSchema)
{
    const std::string json_path =
        ::testing::TempDir() + "sweep_test_bad_schema.json";
    {
        std::ofstream out(json_path);
        out << R"({"schema": "rnr-sweep-v99", "cells": []})";
    }
    std::vector<ExperimentResult> loaded;
    std::string error;
    EXPECT_FALSE(readResultsJson(json_path, loaded, nullptr, nullptr,
                                 &error));
    EXPECT_FALSE(error.empty());
    std::remove(json_path.c_str());
}

TEST(SweepHostInfoTest, PeakRssIsReportedOnLinux)
{
#ifdef __linux__
    // A live gtest process has certainly touched more than a MiB.
    EXPECT_GT(hostPeakRssBytes(), std::uint64_t{1} << 20);
#else
    EXPECT_EQ(hostPeakRssBytes(), 0u); // documented "unknown" fallback
#endif
}

TEST(SweepEtaTest, ExtrapolatesFromFinishedCells)
{
    // 2 of 6 cells in 10s -> 4 remaining at 5s each.
    EXPECT_EQ(formatSweepEta(2, 6, 2, 10.0), "20s");
    EXPECT_EQ(formatSweepEta(3, 3, 3, 9.0), "0s");
}

TEST(SweepEtaTest, NoSignalMeansNoEta)
{
    // Nothing finished yet.
    EXPECT_EQ(formatSweepEta(0, 6, 0, 0.0), "--");
    // Clock has not advanced (sub-resolution cache hits).
    EXPECT_EQ(formatSweepEta(2, 6, 2, 0.0), "--");
    // Every finished cell was a warm cache hit: per-cell time says
    // nothing about the simulations still to run, so no nonsense
    // near-zero ETA.
    EXPECT_EQ(formatSweepEta(4, 8, 0, 0.001), "--");
}

TEST(SweepEtaTest, OverdoneCountClampsToZeroRemaining)
{
    // done > total (e.g. duplicate-folding races) must not underflow.
    EXPECT_EQ(formatSweepEta(7, 6, 7, 14.0), "0s");
}

} // namespace
} // namespace rnr
