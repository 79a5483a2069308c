/**
 * @file
 * Input memo tests: a sweep over >= 4 prefetcher configs sharing one
 * input builds it exactly once (asserted through the CheckpointStore
 * counters) and exports sweep JSON byte-identical to cells that each
 * build their own input.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/ckpt_store.h"
#include "ckpt/input_fork.h"
#include "harness/result_cache.h"
#include "harness/runner.h"
#include "harness/sweep.h"
#include "workloads/graph_gen.h"

namespace rnr {
namespace {

namespace fs = std::filesystem;

/** Inputs built and memo hits since construction. */
struct InputCounts {
    ckpt::CheckpointStore &store = ckpt::CheckpointStore::instance();
    const std::uint64_t warmups0 = store.warmups();
    const std::uint64_t forks0 = store.forks();

    std::uint64_t built() const { return store.warmups() - warmups0; }
    std::uint64_t served() const { return store.forks() - forks0; }
};

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
        setenv("RNR_CACHE", "0", 1);
        setenv("RNR_TRACE_STORE", "0", 1);
        setenv("RNR_PROGRESS", "0", 1);
        unsetenv("RNR_JSON_OUT");
        ResultCache::instance().clearForTest();
    }

    void
    TearDown() override
    {
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

    const InputCounts counts;
    const std::vector<ExperimentResult> results = runSweep(cfgs, {});
    ASSERT_EQ(results.size(), cfgs.size());

    // Exactly one build; every other cell was served from the memo.
    EXPECT_EQ(counts.built(), 1u);
    EXPECT_EQ(counts.served(), cfgs.size() - 1);
}

TEST_F(ForkSweepTest, ForkSweepJsonIsByteIdenticalToPlainSweep)
{
    const std::vector<ExperimentConfig> cfgs = sharedWorkloadBatch();

    SweepOptions fork_opts;
    fork_opts.json_out = root_ + "/fork.json";
    fork_opts.json_host = 0; // byte-comparable export
    (void)runSweep(cfgs, fork_opts);

    // Plain: each cell on its own, outside any sweep, so each builds
    // its input; caches cleared so every cell really simulates again.
    ResultCache::instance().clearForTest();
    const InputCounts counts;
    std::vector<ExperimentResult> plain;
    for (const ExperimentConfig &cfg : cfgs)
        plain.push_back(runExperiment(cfg));
    EXPECT_EQ(counts.built(), cfgs.size());
    ASSERT_TRUE(writeResultsJson(root_ + "/plain.json", plain,
                                 fork_opts.label, nullptr));

    const std::string fork_json = fileBytes(root_ + "/fork.json");
    ASSERT_FALSE(fork_json.empty());
    EXPECT_EQ(fork_json, fileBytes(root_ + "/plain.json"));
}

/** Graph-level equality, array by array. */
void
expectSameGraph(const Graph &a, const Graph &b)
{
    EXPECT_EQ(a.num_vertices, b.num_vertices);
    EXPECT_EQ(a.offsets, b.offsets);
    EXPECT_EQ(a.edges, b.edges);
}

TEST(InputMemo, BuildsEachInputOnce)
{
    ExperimentConfig pagerank;
    pagerank.app = "pagerank";
    pagerank.input = "amazon";
    ExperimentConfig hyperanf = pagerank;
    hyperanf.app = "hyperanf";
    const Graph generated = makeGraphInput("amazon").graph;

    {
        const ckpt::InputMemoScope memo;
        const InputCounts counts;
        // Two apps on one graph: one build, one memo hit.
        (void)makeWorkload(pagerank);
        (void)makeWorkload(hyperanf);
        EXPECT_EQ(counts.built(), 1u);
        EXPECT_EQ(counts.served(), 1u);
        // What the memo hands out is the generated graph, bit for bit.
        expectSameGraph(ckpt::forkGraphInput(hyperanf), generated);
        EXPECT_EQ(counts.built(), 1u);

        // A build that throws leaves nothing behind: the next caller
        // tries again and gets the same error.
        ExperimentConfig bogus = pagerank;
        bogus.input = "no-such-input";
        EXPECT_THROW(ckpt::forkGraphInput(bogus), std::invalid_argument);
        EXPECT_THROW(ckpt::forkGraphInput(bogus), std::invalid_argument);
        EXPECT_EQ(counts.built(), 1u);
    }

    // The last scope closed: the memo is gone and the next call builds.
    const InputCounts counts;
    expectSameGraph(ckpt::forkGraphInput(pagerank), generated);
    EXPECT_EQ(counts.built(), 1u);
    EXPECT_EQ(counts.served(), 0u);
}

} // namespace
} // namespace rnr
