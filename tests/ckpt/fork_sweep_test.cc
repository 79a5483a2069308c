/**
 * @file
 * Checkpoint-fork sweep tests — the acceptance criterion in code: a
 * sweep over >= 4 prefetcher configs sharing one workloadKey() performs
 * exactly one warm-up (asserted through the store counters) while
 * producing sweep JSON byte-identical to a
 * plain (RNR_CKPT=0) sweep.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/ckpt_store.h"
#include "ckpt/input_fork.h"
#include "harness/result_cache.h"
#include "harness/sweep.h"

namespace rnr {
namespace {

namespace fs = std::filesystem;

class ForkSweepTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = (fs::temp_directory_path() /
                 ("rnr_fork_sweep_test_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name())))
                    .string();
        fs::remove_all(root_);
        fs::create_directories(root_);
        setenv("RNR_CKPT_DIR", (root_ + "/ckpt").c_str(), 1);
        unsetenv("RNR_CKPT");
        setenv("RNR_CACHE", "0", 1);
        setenv("RNR_TRACE_STORE", "0", 1);
        setenv("RNR_PROGRESS", "0", 1);
        unsetenv("RNR_JSON_OUT");
        ckpt::CheckpointStore::instance().resetForTest();
        ckpt::resetInputForkForTest();
        ResultCache::instance().clearForTest();
    }

    void
    TearDown() override
    {
        ckpt::CheckpointStore::instance().resetForTest();
        ckpt::resetInputForkForTest();
        unsetenv("RNR_CKPT_DIR");
        unsetenv("RNR_CKPT");
        fs::remove_all(root_);
    }

    /** >= 4 prefetcher configs sharing one workloadKey(). */
    static std::vector<ExperimentConfig>
    sharedWorkloadBatch()
    {
        std::vector<ExperimentConfig> cfgs;
        for (PrefetcherKind pf :
             {PrefetcherKind::None, PrefetcherKind::NextLine,
              PrefetcherKind::Stride, PrefetcherKind::Droplet,
              PrefetcherKind::Rnr}) {
            ExperimentConfig cfg;
            cfg.app = "pagerank";
            cfg.input = "urand";
            cfg.iterations = 2;
            cfg.cores = 2;
            cfg.prefetcher = pf;
            cfgs.push_back(cfg);
        }
        return cfgs;
    }

    static std::string
    fileBytes(const std::string &path)
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    }

    std::string root_;
};

TEST_F(ForkSweepTest, SweepWarmsUpOnceAndForksTheRest)
{
    const std::vector<ExperimentConfig> cfgs = sharedWorkloadBatch();
    ASSERT_GE(cfgs.size(), 4u);

    SweepOptions opts;
    opts.json_out = root_ + "/fork.json";
    opts.json_host = 0; // byte-comparable export
    const std::vector<ExperimentResult> results = runSweep(cfgs, opts);
    ASSERT_EQ(results.size(), cfgs.size());

    // Exactly one warm-up; every other cell forked it.
    ckpt::CheckpointStore &store = ckpt::CheckpointStore::instance();
    EXPECT_EQ(store.warmups(), 1u);
    EXPECT_EQ(store.forks(), cfgs.size() - 1);
    // The one published input snapshot.
    EXPECT_EQ(store.blobs().entryPaths().size(), 1u);
}

TEST_F(ForkSweepTest, ForkSweepJsonIsByteIdenticalToPlainSweep)
{
    const std::vector<ExperimentConfig> cfgs = sharedWorkloadBatch();

    SweepOptions fork_opts;
    fork_opts.json_out = root_ + "/fork.json";
    fork_opts.json_host = 0;
    (void)runSweep(cfgs, fork_opts);
    EXPECT_EQ(ckpt::CheckpointStore::instance().warmups(), 1u);

    // Plain sweep: store off, caches cleared so every cell really
    // simulates again.
    setenv("RNR_CKPT", "0", 1);
    ckpt::resetInputForkForTest();
    ResultCache::instance().clearForTest();
    SweepOptions plain_opts;
    plain_opts.json_out = root_ + "/plain.json";
    plain_opts.json_host = 0;
    (void)runSweep(cfgs, plain_opts);

    const std::string fork_json = fileBytes(root_ + "/fork.json");
    ASSERT_FALSE(fork_json.empty());
    EXPECT_EQ(fork_json, fileBytes(root_ + "/plain.json"));
}

TEST_F(ForkSweepTest, WarmProcessRerunDoesZeroWarmups)
{
    const std::vector<ExperimentConfig> cfgs = sharedWorkloadBatch();
    (void)runSweep(cfgs, SweepOptions{});
    ckpt::CheckpointStore &store = ckpt::CheckpointStore::instance();
    ASSERT_EQ(store.warmups(), 1u);

    // Second sweep in the same process: the memo (and failing that,
    // the published snapshot) serves every input — zero warm-ups.
    ResultCache::instance().clearForTest();
    (void)runSweep(cfgs, SweepOptions{});
    EXPECT_EQ(store.warmups(), 1u);
    EXPECT_EQ(store.forks(), 2 * cfgs.size() - 1);

    // Cold-memo rerun (as a fresh process would): the snapshot alone
    // serves the input — still zero warm-ups.
    ckpt::resetInputForkForTest();
    ResultCache::instance().clearForTest();
    (void)runSweep(cfgs, SweepOptions{});
    EXPECT_EQ(store.warmups(), 1u);
}

TEST_F(ForkSweepTest, CorruptInputSnapshotRegeneratesBitIdentically)
{
    const std::vector<ExperimentConfig> cfgs = sharedWorkloadBatch();
    SweepOptions opts;
    opts.json_out = root_ + "/first.json";
    opts.json_host = 0;
    (void)runSweep(cfgs, opts);
    const std::string snap =
        ckpt::CheckpointStore::instance().blobs().entryPath(
            ckpt::inputSnapshotKey(cfgs.front()));
    ASSERT_TRUE(fs::exists(snap));

    // Corrupt the published input snapshot on disk.
    {
        std::ofstream out(snap, std::ios::binary | std::ios::trunc);
        out << "garbage";
    }
    // Fresh process state: memo cold, result cache cold.
    ckpt::resetInputForkForTest();
    ResultCache::instance().clearForTest();
    ckpt::CheckpointStore::instance().resetForTest();

    SweepOptions again;
    again.json_out = root_ + "/second.json";
    again.json_host = 0;
    (void)runSweep(cfgs, again);
    ckpt::CheckpointStore &store = ckpt::CheckpointStore::instance();
    EXPECT_GE(store.blobs().quarantines(), 1u);
    EXPECT_EQ(store.warmups(), 1u); // regenerated exactly once

    EXPECT_EQ(fileBytes(root_ + "/first.json"),
              fileBytes(root_ + "/second.json"));
}

} // namespace
} // namespace rnr
