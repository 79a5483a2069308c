/**
 * @file
 * Fig 16 (extension): checkpoint-fork sweep speedup.  A sweep over N
 * prefetcher configs on one input pays the input warm-up once and
 * forks it into every other cell (src/ckpt/); this harness
 * times that against a plain sweep where every cell generates its
 * input natively, and prints the warm-up/fork accounting alongside.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "ckpt/ckpt_store.h"
#include "ckpt/input_fork.h"
#include "harness/result_cache.h"
#include "harness/sweep.h"

using namespace rnr;

namespace {

using Clock = std::chrono::steady_clock;

std::vector<ExperimentConfig>
sharedWorkloadBatch(const char *input)
{
    std::vector<ExperimentConfig> cfgs;
    for (PrefetcherKind pf :
         {PrefetcherKind::None, PrefetcherKind::NextLine,
          PrefetcherKind::Stride, PrefetcherKind::Ghb,
          PrefetcherKind::Droplet, PrefetcherKind::Rnr,
          PrefetcherKind::RnrCombined}) {
        ExperimentConfig cfg;
        cfg.app = "pagerank";
        cfg.input = input;
        cfg.prefetcher = pf;
        cfgs.push_back(cfg);
    }
    return cfgs;
}

double
timedSweep(const std::vector<ExperimentConfig> &cfgs)
{
    ResultCache::instance().clearForTest();
    ckpt::resetInputForkForTest();
    const auto start = Clock::now();
    SweepOptions opts;
    opts.progress = 0;
    (void)runSweep(cfgs, opts);
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

int
main()
{
    // Honest timing: no result/trace reuse between the two variants.
    setenv("RNR_CACHE", "0", 1);
    setenv("RNR_TRACE_STORE", "0", 1);

    std::printf("== Fig 16: checkpoint-fork sweep speedup ==\n\n");
    std::printf("%-12s %8s %12s %12s %10s %8s\n", "input", "cells",
                "plain (s)", "fork (s)", "warm-ups", "speedup");

    for (const char *input : {"urand", "amazon"}) {
        const std::vector<ExperimentConfig> cfgs =
            sharedWorkloadBatch(input);

        setenv("RNR_CKPT", "0", 1);
        const double plain = timedSweep(cfgs);

        setenv("RNR_CKPT", "1", 1);
        ckpt::CheckpointStore::instance().resetForTest();
        const double forked = timedSweep(cfgs);
        const ckpt::CheckpointStore &store =
            ckpt::CheckpointStore::instance();

        std::printf("%-12s %8zu %12.2f %12.2f %7llu+%llu %7.2fx\n",
                    input, cfgs.size(), plain, forked,
                    static_cast<unsigned long long>(store.warmups()),
                    static_cast<unsigned long long>(store.forks()),
                    forked > 0 ? plain / forked : 0.0);
    }

    std::printf("\nThe fork sweep generates each shared input once "
                "(warm-ups column: generated+forked) and its results "
                "are byte-identical to the plain sweep's "
                "(tests/ckpt/fork_sweep_test.cc).\n");
    return 0;
}
