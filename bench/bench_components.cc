/**
 * @file
 * Component microbenchmarks (google-benchmark): throughput of the
 * simulator's hot paths, so regressions in simulation speed — which
 * gates how big an input the benches can afford — are visible.  The
 * per-layer rows CI gates (DRAM reads, trace emission and the rest)
 * live in micro_hotpath.cc.
 */
#include <benchmark/benchmark.h>

#include "cpu/system.h"
#include "mem/memory_system.h"
#include "sim/rng.h"
#include "workloads/graph_gen.h"
#include "workloads/pagerank.h"

namespace {

using namespace rnr;

void
BM_CacheAccess(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.name = "bench";
    cfg.size_bytes = 32 * 1024;
    cfg.ways = 8;
    Cache cache(cfg);
    Rng rng(1);
    Tick t = 0;
    for (auto _ : state) {
        const Addr block = rng.below(4096);
        if (!cache.access(block, t))
            cache.insert(block, t, false, false);
        ++t;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_DemandAccessFullPath(benchmark::State &state)
{
    MemorySystem ms(MachineConfig::scaledDefault());
    Rng rng(3);
    Tick t = 0;
    for (auto _ : state) {
        ms.demandAccess(0, 0x10000000 + rng.below(1 << 22), false, 1, t);
        t += 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DemandAccessFullPath);

void
BM_CoreStepThroughput(benchmark::State &state)
{
    MachineConfig mcfg = MachineConfig::scaledDefault();
    mcfg.cores = 1;
    // Pre-build one PageRank iteration trace and re-run it.
    WorkloadOptions opts;
    opts.cores = 1;
    PageRankWorkload wl(makeUrandGraph(4096, 8, 13), opts);
    std::vector<TraceBuffer> bufs(1);
    wl.emitIteration(0, false, bufs);

    System sys(mcfg);
    std::uint64_t records = 0;
    for (auto _ : state) {
        std::vector<const TraceBuffer *> ptrs = {&bufs[0]};
        sys.run(ptrs);
        records += bufs[0].size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_CoreStepThroughput)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
