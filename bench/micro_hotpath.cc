/**
 * @file
 * Hot-path microbenchmark: simulated mem-ops/s through
 * MemorySystem::demandAccess.
 *
 * Replays a recorded PageRank/urand trace slice (the paper's
 * worst-locality input) straight into the memory system, bypassing the
 * core model, so the measured rate isolates the cache/MSHR/DRAM/stats
 * bookkeeping that every simulated access pays.  This is the repo's
 * committed perf trajectory point: CI runs it in Release mode and
 * uploads BENCH_hotpath.json, and the before/after numbers of each
 * accepted optimisation live in the checked-in copy of that file.
 *
 * Variants:
 *  - none:    no prefetcher — the floor every other config builds on.
 *  - stream:  stream prefetcher attached — adds the Prefetcher::onAccess
 *             and issuePrefetch counter paths to the measurement.
 *  - sampled: like none but with a live TelemetrySampler attached and
 *             offered the clock per op — the *enabled* sampling cost
 *             (the disabled cost is what none measures, since the
 *             telemetry hooks are always compiled in; the A/B lives in
 *             BENCH_telemetry.json).
 *
 * BM_DemandAccessObsGated is the observability-off A/B partner of
 * none: the identical loop with a disabled metrics-registry gate per
 * op (the nullptr a call site holds under RNR_METRICS=0) and a
 * below-threshold logEnabled() check per sweep — the exact shapes the
 * instrumented sites in src/harness and the stores have, at the
 * granularities they really run at.  Its rate must stay within noise
 * of none (docs/HARNESS.md §15); CI asserts the parity and the
 * compare gate pins both.  BM_DemandAccessAttribGated is the same
 * contract for the attribution layer (docs/HARNESS.md §17): the loop
 * with attachAttrib(nullptr) and a per-op null-collector gate, the
 * shape every cache/memory-system hook has when RNR_ATTRIB is off.
 *
 * BM_Kernel/{batched,legacy} measure the full stack instead — trace
 * feed, CoreModel inner loop, memory system — under each simulation
 * kernel (sim/kernel.h), so the batched-vs-legacy speedup is the
 * headline number of docs/PERF.md and the pair CI gates together.
 *
 * The checkpoint subsystem (src/ckpt) adds two rows:
 *  - BM_WarmupGenerate vs BM_WarmupFork: the sweep warm-up A/B —
 *    native urand graph synthesis against decoding the published
 *    input snapshot the checkpoint-fork sweep shares.  Items are
 *    inputs, so fork-rate / generate-rate is the per-cell warm-up
 *    speedup every forked sweep config enjoys (docs/PERF.md).
 *
 * Two rows pin the held-out replay path (docs/PERF.md section 8):
 *  - BM_TraceFileIngest: iteration 0 of the tracefile workload, i.e. a
 *    v2 trace file of the hot slice decoded into a fresh TraceBuffer.
 *    Items are records, so the rate is ingest throughput including the
 *    buffer's allocation.
 *  - BM_CacheAccess/llc: lookup, and insert on a miss, on a lone
 *    Cache of the LLC's geometry (16 ways) over random blocks spanning
 *    four times its lines, so three in four accesses miss and evict.
 *    Items are accesses.
 *
 * Run `micro_hotpath compare <baseline.json> <current.json>` to use the
 * binary as a regression gate instead (bench_util.h, benchCompareMain);
 * any other arguments go to google-benchmark as usual.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "bench_util.h"
#include "ckpt/checkpoint.h"
#include "cpu/system.h"
#include "mem/memory_system.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "prefetch/factory.h"
#include "sim/attrib.h"
#include "sim/config.h"
#include "sim/kernel.h"
#include "sim/rng.h"
#include "sim/timeseries.h"
#include "tracestore/trace_codec.h"
#include "workloads/graph_gen.h"
#include "workloads/pagerank.h"
#include "workloads/trace_replay.h"

namespace rnr {
namespace {

/** Records one PageRank/urand iteration once; shared by all variants. */
const std::vector<TraceRecord> &
hotTrace()
{
    static const std::vector<TraceRecord> trace = [] {
        WorkloadOptions opts;
        opts.cores = 1;
        opts.use_rnr = false; // pure demand trace: no control records
        PageRankWorkload wl(makeGraphInput("urand").graph, opts);
        std::vector<TraceBuffer> bufs(1);
        wl.emitIteration(0, /*is_last=*/true, bufs);
        const std::vector<TraceRecord> &recs = bufs[0].records();
        const std::size_t n =
            std::min<std::size_t>(recs.size(), std::size_t{1} << 21);
        return std::vector<TraceRecord>(recs.begin(), recs.begin() + n);
    }();
    return trace;
}

void
BM_DemandAccess(benchmark::State &state, PrefetcherKind kind)
{
    const std::vector<TraceRecord> &trace = hotTrace();
    MachineConfig mcfg = MachineConfig::scaledDefault();
    mcfg.cores = 1;
    MemorySystem ms(mcfg);
    std::unique_ptr<Prefetcher> pf = createPrefetcher(kind);
    ms.setPrefetcher(0, pf.get());

    // Issue ticks advance like a 4-wide core would: one cycle per memory
    // op plus the record's instruction gap share.  Time never rewinds
    // across benchmark iterations, matching the simulator's contract.
    Tick now = 0;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        for (const TraceRecord &rec : trace) {
            now += 1 + rec.gap / 4;
            const DemandResult res = ms.demandAccess(
                0, rec.addr, rec.kind == RecordKind::Store, rec.pc, now);
            benchmark::DoNotOptimize(res.done);
        }
        ops += trace.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

void
BM_DemandAccessSampled(benchmark::State &state)
{
    const std::vector<TraceRecord> &trace = hotTrace();
    MachineConfig mcfg = MachineConfig::scaledDefault();
    mcfg.cores = 1;
    MemorySystem ms(mcfg);
    std::unique_ptr<Prefetcher> pf =
        createPrefetcher(PrefetcherKind::None);
    ms.setPrefetcher(0, pf.get());

    // The core model normally drives sampling from step(); here the
    // bench plays that role, offering the clock once per op like a
    // one-op cycle batch would.
    TelemetrySampler tm(kDefaultSampleCycles);
    ms.attachTelemetry(&tm);

    Tick now = 0;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        for (const TraceRecord &rec : trace) {
            now += 1 + rec.gap / 4;
            tm.maybeSample(now);
            const DemandResult res = ms.demandAccess(
                0, rec.addr, rec.kind == RecordKind::Store, rec.pc, now);
            benchmark::DoNotOptimize(res.done);
        }
        ops += trace.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

void
BM_DemandAccessObsGated(benchmark::State &state)
{
    const std::vector<TraceRecord> &trace = hotTrace();
    MachineConfig mcfg = MachineConfig::scaledDefault();
    mcfg.cores = 1;
    MemorySystem ms(mcfg);
    std::unique_ptr<Prefetcher> pf =
        createPrefetcher(PrefetcherKind::None);
    ms.setPrefetcher(0, pf.get());

    // The disabled-observability call-site shape: the registry handed
    // this site nullptr (what RNR_METRICS=0 returns) and the default
    // info threshold rejects Debug, so both gates must cost one
    // predictable branch apiece.  DoNotOptimize keeps the compiler
    // from proving the pointer null and deleting the branch outright —
    // real call sites hold it in a static the optimizer can't fold.
    obs::Counter *ops_counter = nullptr;
    benchmark::DoNotOptimize(ops_counter);
    (void)obs::logThreshold(); // force env init so Debug is gated off

    Tick now = 0;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        // Per-sweep log gate: no instrumented site logs per memory op —
        // log records mark cell/batch events — so the disabled check
        // belongs at the sweep granularity it really runs at.
        if (obs::logEnabled(obs::LogLevel::Debug))
            obs::LogLine(obs::LogLevel::Debug, "bench")
                .msg("sweep start")
                .kv("ops", static_cast<std::uint64_t>(trace.size()));
        for (const TraceRecord &rec : trace) {
            if (ops_counter)
                ops_counter->add();
            now += 1 + rec.gap / 4;
            const DemandResult res = ms.demandAccess(
                0, rec.addr, rec.kind == RecordKind::Store, rec.pc, now);
            benchmark::DoNotOptimize(res.done);
        }
        ops += trace.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

void
BM_DemandAccessAttribGated(benchmark::State &state)
{
    const std::vector<TraceRecord> &trace = hotTrace();
    MachineConfig mcfg = MachineConfig::scaledDefault();
    mcfg.cores = 1;
    MemorySystem ms(mcfg);
    std::unique_ptr<Prefetcher> pf =
        createPrefetcher(PrefetcherKind::None);
    ms.setPrefetcher(0, pf.get());

    // The disabled-attribution call-site shape (sim/attrib.h rule 2):
    // every cache/memory-system hook holds an `AttribCollector *` that
    // attachAttrib() left null, so the per-access cost must be one
    // predictable branch per hook.  attachAttrib(nullptr) walks the
    // exact detach path the runner uses, and the extra null-gated call
    // here mirrors the densest hook (the L2 demand-miss probe) at the
    // per-op granularity it really fires at.  DoNotOptimize keeps the
    // compiler from folding the branch away.
    ms.attachAttrib(nullptr);
    AttribCollector *at = nullptr;
    benchmark::DoNotOptimize(at);

    Tick now = 0;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        for (const TraceRecord &rec : trace) {
            if (at)
                at->onDemandMiss(0, rec.addr >> kBlockBits);
            now += 1 + rec.gap / 4;
            const DemandResult res = ms.demandAccess(
                0, rec.addr, rec.kind == RecordKind::Store, rec.pc, now);
            benchmark::DoNotOptimize(res.done);
        }
        ops += trace.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

/**
 * Whole-kernel A/B: a one-core System consumes the hot trace through
 * CoreModel under the requested kernel mode.  Items are trace records
 * (mem ops), so the rate is directly comparable to BM_DemandAccess —
 * the delta between them is what the core-side loop costs.
 */
void
BM_Kernel(benchmark::State &state, KernelMode mode)
{
    static const TraceBuffer &buf = *[] {
        static TraceBuffer b;
        for (const TraceRecord &rec : hotTrace())
            b.push(rec);
        return &b;
    }();
    MachineConfig mcfg = MachineConfig::scaledDefault();
    mcfg.cores = 1;
    System sys(mcfg, mode);
    std::unique_ptr<Prefetcher> pf =
        createPrefetcher(PrefetcherKind::None);
    sys.mem().setPrefetcher(0, pf.get());

    std::uint64_t ops = 0;
    for (auto _ : state) {
        const IterationResult res = sys.run({&buf});
        benchmark::DoNotOptimize(res.end);
        ops += buf.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

/** The sweep warm-up's native side: synthesize the urand graph the
 *  way the first config of a workload key must.  Items are inputs. */
void
BM_WarmupGenerate(benchmark::State &state)
{
    std::uint64_t inputs = 0;
    for (auto _ : state) {
        GraphInput in = makeGraphInput("urand");
        benchmark::DoNotOptimize(in.graph.num_vertices);
        ++inputs;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(inputs));
}

/** The warm-up's forked side: decode the published input snapshot
 *  instead of regenerating — what every other config of the workload
 *  key pays under RNR_CKPT=1.  Same items as BM_WarmupGenerate, so
 *  the rate ratio is the per-cell warm-up speedup. */
void
BM_WarmupFork(benchmark::State &state)
{
    // The exact blob the warm-up publishes: tag+name prefix, then the
    // CSR arrays (mirrors src/ckpt/input_fork.cc's encodeInput).
    static const std::vector<std::uint8_t> &blob = *[] {
        static std::vector<std::uint8_t> b;
        Graph g = makeGraphInput("urand").graph;
        ckpt::SnapshotWriter w(ckpt::SnapshotHeader{"bench", "", 0});
        ckpt::Ser &s = w.section(ckpt::SectionId::Input);
        std::uint64_t tag = 1;
        s.scalar(tag);
        std::string name = "urand";
        s.str(name);
        g.visitState(s);
        b = w.finish();
        return &b;
    }();

    std::uint64_t inputs = 0;
    for (auto _ : state) {
        ckpt::SnapshotReader reader;
        if (!reader.parse(blob).ok()) {
            state.SkipWithError("input snapshot failed to parse");
            break;
        }
        ckpt::Deser d = reader.section(ckpt::SectionId::Input);
        std::uint64_t tag = 0;
        d.scalar(tag);
        std::string name;
        d.str(name);
        Graph g;
        g.visitState(d);
        if (!d.ok()) {
            state.SkipWithError("input snapshot failed to decode");
            break;
        }
        benchmark::DoNotOptimize(g.num_vertices);
        ++inputs;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(inputs));
}

/** Iteration 0 of a one-core tracefile workload over the hot slice:
 *  footer-sized buffer, every v2 block decoded into it.  Items are
 *  records. */
void
BM_TraceFileIngest(benchmark::State &state)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "micro_hotpath.rnrt")
            .string();
    TraceBuffer trace;
    for (const TraceRecord &rec : hotTrace())
        trace.push(rec);
    if (!writeTraceFileV2(path, trace)) {
        state.SkipWithError("cannot write the trace file");
        return;
    }
    WorkloadOptions opts;
    opts.cores = 1;
    TraceFileWorkload wl(path, opts);

    std::uint64_t records = 0;
    for (auto _ : state) {
        std::vector<TraceBuffer> bufs(1);
        wl.emitIteration(0, /*is_last=*/true, bufs);
        benchmark::DoNotOptimize(bufs[0].records().data());
        benchmark::ClobberMemory();
        records += bufs[0].size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(records));
    std::remove(path.c_str());
}

/** Lookup plus insert-on-miss on a Cache of the given geometry, over
 *  random blocks spanning four times its lines.  Items are accesses. */
void
BM_CacheAccess(benchmark::State &state, CacheConfig cfg)
{
    Cache cache(cfg);
    const std::uint64_t lines = cfg.size_bytes / kBlockSize;
    Rng rng(7);
    std::vector<Addr> blocks(std::size_t{1} << 20);
    for (Addr &b : blocks)
        b = rng.below(4 * lines);

    Tick t = 0;
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        for (const Addr b : blocks) {
            ++t;
            if (!cache.access(b, t))
                benchmark::DoNotOptimize(cache.insert(b, t, false, false));
        }
        accesses += blocks.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}

BENCHMARK_CAPTURE(BM_DemandAccess, none, PrefetcherKind::None)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DemandAccess, stream, PrefetcherKind::Stream)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DemandAccessSampled)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DemandAccessObsGated)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DemandAccessAttribGated)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Kernel, batched, rnr::KernelMode::Batched)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Kernel, legacy, rnr::KernelMode::Legacy)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WarmupGenerate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WarmupFork)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraceFileIngest)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CacheAccess, llc, MachineConfig::scaledDefault().llc)
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace rnr

// Hand-rolled main so the same binary doubles as the regression gate:
// `micro_hotpath compare <base.json> <cur.json> [--max-regress <pct>]`.
int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "compare") == 0)
        return rnr::bench::benchCompareMain(argc - 1, argv + 1);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
