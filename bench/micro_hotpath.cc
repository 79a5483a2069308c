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
 * BM_DemandAccessAttribGated is the attribution-off A/B partner of
 * none (docs/HARNESS.md §11): the identical loop after attach() with a
 * null attribution probe and a per-op null-collector gate, the shape
 * every cache/memory-system hook has when attribution is off.  Its rate
 * must stay within noise of none; CI asserts the same-run parity and
 * the compare gate pins both.
 *
 * BM_PrefetcherOnAccess/{stems,misb,bingo} pins the prefetcher layer
 * (docs/PERF.md section 12): the hot slice fed straight to one
 * prefetcher's onAccess() as an L2 miss stream, the prefetcher attached
 * to a real MemorySystem so every request it makes takes the real L2
 * issue path.  Most of those requests are ones the L2 refuses (already
 * resident or in flight, or the prefetch queue is full), which is where
 * the Fig 6 baselines spend their host time.  Items are hooked accesses.
 *
 * BM_Kernel measures the full stack instead — trace feed, CoreModel
 * inner loop, memory system — on one core, so the compare gate covers
 * the core model as well as the memory path (docs/PERF.md §3).
 *
 * The checkpoint subsystem (src/ckpt) adds two rows:
 *  - BM_WarmupGenerate vs BM_WarmupFork: the sweep warm-up A/B —
 *    native urand graph synthesis against decoding the published
 *    input snapshot the checkpoint-fork sweep shares.  Items are
 *    inputs, so fork-rate / generate-rate is the per-cell warm-up
 *    speedup every forked sweep config enjoys (docs/PERF.md).
 *
 * BM_WorkloadBuild pins the workload-build layer: PageRank's partition,
 * relabel and transpose of the com-orkut graph, which every cell runs
 * after its input fork.  Items are edges (docs/PERF.md section 11).
 *
 * Four rows pin the trace path (docs/PERF.md sections 8 to 10):
 *  - BM_TraceFileIngest: iteration 0 of the tracefile workload, i.e. a
 *    v2 trace file of the hot slice decoded into a fresh TraceBuffer.
 *    Items are records, so the rate is ingest throughput including the
 *    buffer's allocation.
 *  - BM_TraceDecode: the same file drained by StreamingTraceReader::
 *    takeBlock(), one decoded block resident, as every replay cell
 *    streams it.  Items are records.
 *  - BM_TraceEncode: the same records encoded block by block through
 *    TraceFileWriter into a discard stream, as every capture and
 *    store-off cell encodes them.  Items are records.
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
#include <string>
#include <vector>

#include "bench_util.h"
#include "ckpt/input_fork.h"
#include "cpu/system.h"
#include "mem/memory_system.h"
#include "prefetch/factory.h"
#include "sim/attrib.h"
#include "sim/config.h"
#include "sim/rng.h"
#include "sim/timeseries.h"
#include "tracestore/trace_codec.h"
#include "tracestore/trace_reader.h"
#include "tracestore/trace_writer.h"
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
BM_PrefetcherOnAccess(benchmark::State &state, PrefetcherKind kind)
{
    const std::vector<TraceRecord> &trace = hotTrace();
    MachineConfig mcfg = MachineConfig::scaledDefault();
    mcfg.cores = 1;
    MemorySystem ms(mcfg);
    std::unique_ptr<Prefetcher> pf = createPrefetcher(kind);
    ms.setPrefetcher(0, pf.get());

    // Every record reaches the hook as a demand miss at the tick a
    // 4-wide core would issue it; the tables keep learning across
    // benchmark iterations, as they would over a cell's iterations.
    L2AccessInfo info;
    Tick now = 0;
    std::uint64_t ops = 0;
    for (auto _ : state) {
        for (const TraceRecord &rec : trace) {
            now += 1 + rec.gap / 4;
            info.vaddr = rec.addr;
            info.block = blockNumber(rec.addr);
            info.pc = rec.pc;
            info.now = now;
            info.is_write = rec.kind == RecordKind::Store;
            pf->onAccess(info);
        }
        ops += trace.size();
    }
    benchmark::DoNotOptimize(pf->stats().get("issued"));
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

    // The core model normally drives sampling from stepRun(); here the
    // bench plays that role, offering the clock once per op like a
    // one-op cycle batch would.
    TelemetrySampler tm(kDefaultSampleCycles);
    ms.attach({.telemetry = &tm});

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
    // every cache/memory-system hook tests the attrib pointer of the
    // probes attach() handed it, here null, so the per-access cost must
    // be one predictable branch per hook.  attach(Probes{}) walks the
    // exact detach path, and the extra null-gated call here mirrors the
    // densest hook (the L2 demand-miss probe) at the per-op granularity
    // it really fires at.  DoNotOptimize keeps the compiler from
    // folding the branch away.
    ms.attach({});
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
 * Whole stack: a one-core System consumes the hot trace through
 * CoreModel.  Items are trace records (mem ops), so the rate is
 * directly comparable to BM_DemandAccess — the delta between them is
 * what the core-side loop costs.
 */
void
BM_Kernel(benchmark::State &state)
{
    static const TraceBuffer &buf = *[] {
        static TraceBuffer b;
        for (const TraceRecord &rec : hotTrace())
            b.push(rec);
        return &b;
    }();
    MachineConfig mcfg = MachineConfig::scaledDefault();
    mcfg.cores = 1;
    System sys(mcfg);
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
 *  way the first config on an input must.  Items are inputs. */
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
 *  instead of regenerating — what every other config on the same input
 *  pays under RNR_CKPT=1.  Same items as BM_WarmupGenerate, so the
 *  rate ratio is the per-cell warm-up speedup. */
void
BM_WarmupFork(benchmark::State &state)
{
    // The exact blob the warm-up publishes.
    static const std::vector<std::uint8_t> blob =
        ckpt::encodeInputSnapshot("bench", "urand",
                                  makeGraphInput("urand").graph);

    std::uint64_t inputs = 0;
    for (auto _ : state) {
        Graph g;
        if (!ckpt::decodeInputSnapshot(blob, "urand", g).ok()) {
            state.SkipWithError("input snapshot failed to decode");
            break;
        }
        benchmark::DoNotOptimize(g.num_vertices);
        ++inputs;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(inputs));
}

/** What a cell does with its forked input before emitting: the
 *  PageRank constructor's 4-way partition, relabel and transpose of the
 *  com-orkut graph.  The graph is built once outside the timed loop (a
 *  fork hands over the same bytes).  Items are edges. */
void
BM_WorkloadBuild(benchmark::State &state)
{
    static const Graph graph = makeGraphInput("com-orkut").graph;
    WorkloadOptions opts;
    opts.cores = 4;

    std::uint64_t edges = 0;
    for (auto _ : state) {
        state.PauseTiming();
        Graph g = graph;
        state.ResumeTiming();
        PageRankWorkload wl(std::move(g), opts);
        benchmark::DoNotOptimize(wl.inputBytes());
        edges += graph.numEdges();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(edges));
}

/** Writes the hot slice as a v2 trace file; returns its path, or ""
 *  (and skips @p state) when it cannot be written. */
std::string
writeHotTraceFile(benchmark::State &state)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "micro_hotpath.rnrt")
            .string();
    TraceBuffer trace;
    for (const TraceRecord &rec : hotTrace())
        trace.push(rec);
    if (!writeTraceFileV2(path, trace)) {
        state.SkipWithError("cannot write the trace file");
        return "";
    }
    return path;
}

/** Iteration 0 of a one-core tracefile workload over the hot slice:
 *  footer-sized buffer, every v2 block decoded into it.  Items are
 *  records. */
void
BM_TraceFileIngest(benchmark::State &state)
{
    const std::string path = writeHotTraceFile(state);
    if (path.empty())
        return;
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

/** The same file drained block by block through
 *  StreamingTraceReader::takeBlock(), one decoded block resident: the
 *  decode every trace-store and tracefile replay runs.  Items are
 *  records. */
void
BM_TraceDecode(benchmark::State &state)
{
    const std::string path = writeHotTraceFile(state);
    if (path.empty())
        return;

    std::uint64_t records = 0;
    for (auto _ : state) {
        StreamingTraceReader reader;
        if (!reader.open(path)) {
            state.SkipWithError("cannot open the trace file");
            break;
        }
        std::size_t n = 0;
        while (const TraceRecord *run = reader.takeBlock(n)) {
            benchmark::DoNotOptimize(run);
            records += n;
        }
        if (reader.error()) {
            state.SkipWithError("trace file failed to decode");
            break;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(records));
    std::remove(path.c_str());
}

/** The BM_TraceFileIngest records encoded through TraceFileWriter into
 *  a discard stream, a kDefaultBlockRecords block per write() as a
 *  Tracer hands them over: the encode every capture and store-off cell
 *  runs.  Items are records. */
void
BM_TraceEncode(benchmark::State &state)
{
    const std::vector<TraceRecord> &trace = hotTrace();
    std::uint64_t records = 0;
    for (auto _ : state) {
        TraceFileWriter w;
        w.openDiscard();
        for (std::size_t first = 0; first < trace.size();
             first += kDefaultBlockRecords)
            w.write(trace.data() + first,
                    std::min<std::size_t>(kDefaultBlockRecords,
                                          trace.size() - first));
        if (!w.close()) {
            state.SkipWithError("encode failed");
            break;
        }
        benchmark::DoNotOptimize(w.bytesWritten());
        records += trace.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(records));
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
BENCHMARK_CAPTURE(BM_PrefetcherOnAccess, stems, PrefetcherKind::Stems)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PrefetcherOnAccess, misb, PrefetcherKind::Misb)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PrefetcherOnAccess, bingo, PrefetcherKind::Bingo)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DemandAccessSampled)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DemandAccessAttribGated)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Kernel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WarmupGenerate)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WarmupFork)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WorkloadBuild)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraceFileIngest)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraceDecode)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraceEncode)->Unit(benchmark::kMillisecond);
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
