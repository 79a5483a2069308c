/**
 * @file
 * Trace capture & inspection tool — the ChampSim-style capture-once,
 * replay-many workflow.
 *
 *   trace_tools capture <app> <input> <iteration> <out-prefix>
 *       Emits one compressed (v2) .rnrt file per core for the given
 *       algorithm iteration (0 = the record iteration with RnR setup
 *       calls).  Each core's records stream into its file a block at
 *       a time, so no iteration is held in memory.  Pass --v1 for the
 *       uncompressed legacy format (written from whole buffers).
 *       Files are named <prefix>.c<K>.rnrt, which is exactly the layout
 *       `trace_tools simulate <prefix>` consumes.
 *
 *   trace_tools convert <champsim.trace> <out.rnrt>
 *       Imports a raw (uncompressed) ChampSim instruction trace and
 *       writes it as a v2 trace file runnable via `simulate`.
 *
 *   trace_tools simulate <file-or-prefix> [prefetcher] [iterations]
 *       Replays a trace file (or a `<prefix>.c<K>.rnrt` per-core set)
 *       through the simulator under the given prefetcher (default rnr)
 *       and prints the per-iteration counters.
 *
 *   trace_tools stats <file.rnrt>
 *       Decode-free summary from the v2 footer (or a single streaming
 *       pass for v1 files) plus the compression ratio against the
 *       uncompressed v1 encoding.
 *
 *   trace_tools corpus
 *       Lists the trace store's entries ($RNR_TRACE_DIR).
 *
 *   trace_tools ckpt list|inspect
 *       Snapshot-store listing ($RNR_CKPT_DIR, docs/HARNESS.md
 *       section 3).  `list` summarises every snapshot (key, size);
 *       `inspect <file>` decodes one blob's header.
 *
 *   trace_tools gc [--max-bytes <n>]
 *       Store maintenance over the result, trace and snapshot stores:
 *       deletes corrupt entries, temp leftovers and entries of another
 *       model epoch, and with --max-bytes <n> evicts each store's
 *       oldest entries until it fits the cap.
 *
 *   trace_tools inspect <file.rnrt>
 *       Prints a full decode: record counts, instruction count,
 *       access-site histogram and the embedded RnR control calls.
 *
 *   trace_tools rnr-trace [app] [input] [trace.json]
 *       Simulates a small RnR run (default pagerank/urand) with event
 *       tracing enabled, prints the per-window replay diagnostics
 *       report and writes a Perfetto-loadable Chrome trace JSON.
 *       Honours --trace-buf <n> (ring capacity) anywhere in the args.
 *
 *   trace_tools attrib [app] [input] [prefetcher]
 *       Simulates one cell (default pagerank/urand/rnr) with
 *       prefetch-quality attribution on and prints the rnr-attrib-v1
 *       JSON blob (per-site and per-region outcome tables, pollution
 *       accounting, Fig 11 per-window splits) on stdout.  Exits 0 when
 *       the attribution totals reconcile exactly with the iteration
 *       counters, 1 on a mismatch.  Honours --iterations/--cores.
 *
 *   trace_tools report [app] [input] [out-prefix]
 *       Simulates the no-prefetch baseline and RnR for one workload
 *       with telemetry sampling on and writes <prefix>.json
 *       (rnr-report-v2) plus a self-contained <prefix>.html dashboard
 *       (harness/report.h).  Prefix defaults to "rnr_report";
 *       honours --sample-cycles/--iterations/--cores.
 *
 *   trace_tools sweep [--app a] [--input i] [--prefetchers p,...]
 *       Runs one workload under each listed prefetcher (default
 *       none,nextline,stride,rnr) as one SweepRunner batch
 *       ($RNR_JOBS threads) and prints a one-line summary; --json
 *       writes the rnr-sweep export, --label names the batch,
 *       --iterations/--cores shrink the cells.  An unknown prefetcher
 *       or a bad argument is one line on stderr and exit 2.
 *
 *   trace_tools help [mode]
 *       This text, or one mode's usage.  Every mode also accepts
 *       --help/-h.  Unknown modes print usage and exit 2.
 *       `help --markdown` prints the mode table as GitHub markdown —
 *       README.md embeds that output verbatim between its
 *       trace_tools-modes markers, and a CI diff test keeps the two
 *       in sync (tests/tools/trace_tools_cli_test.cc).
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include <algorithm>

#include "ckpt/ckpt_store.h"
#include "harness/metrics.h"
#include "harness/report.h"
#include "harness/result_cache.h"
#include "harness/runner.h"
#include "harness/sweep.h"
#include "sim/attrib.h"
#include "sim/timeseries.h"
#include "sim/trace_event.h"
#include "trace/trace_io.h"
#include "tracestore/champsim_import.h"
#include "tracestore/trace_codec.h"
#include "tracestore/trace_file.h"
#include "tracestore/trace_store.h"
#include "tracestore/trace_writer.h"
#include "workloads/trace_replay.h"

using namespace rnr;

namespace {

/** Bytes the uncompressed v1 encoding of @p records would occupy. */
std::uint64_t
v1FileBytes(std::uint64_t records)
{
    return 24 + records * 28; // header + packed records
}

/** Drops every record: the iterations before the captured one. */
struct DiscardSink final : TraceSink {
    void write(const TraceRecord *, std::size_t) override {}
};

int
capture(const std::string &app, const std::string &input, unsigned iter,
        const std::string &prefix, bool v1)
{
    ExperimentConfig cfg;
    cfg.app = app;
    cfg.input = input;
    std::unique_ptr<Workload> wl = makeWorkload(cfg);
    const unsigned cores = wl->cores();

    DiscardSink discard;
    for (unsigned it = 0; it < iter; ++it)
        wl->emitIteration(it, false,
                          std::vector<TraceSink *>(cores, &discard));

    std::vector<std::string> paths;
    for (unsigned c = 0; c < cores; ++c)
        paths.push_back(prefix + ".c" + std::to_string(c) + ".rnrt");
    // v2 streams each core's records into its file a block at a time;
    // the v1 format puts the record count first, so it is written from
    // whole buffers.
    std::vector<TraceFileStats> stats(cores);
    std::vector<TraceIoResult> written(cores);
    if (v1) {
        std::vector<TraceBuffer> bufs;
        wl->emitIteration(iter, false, bufs);
        for (unsigned c = 0; c < cores; ++c) {
            written[c] = writeTraceFile(paths[c], bufs[c]);
            stats[c].records = bufs[c].size();
            stats[c].instructions = bufs[c].instructions();
            stats[c].raw_bytes = bufs[c].memoryBytes();
        }
    } else {
        std::vector<TraceFileWriter> writers(cores);
        std::vector<TraceSink *> sinks;
        for (unsigned c = 0; c < cores; ++c) {
            written[c] = writers[c].open(paths[c]);
            sinks.push_back(&writers[c]);
        }
        wl->emitIteration(iter, false, sinks);
        for (unsigned c = 0; c < cores; ++c) {
            const TraceIoResult closed = writers[c].close();
            if (written[c])
                written[c] = closed;
            stats[c] = writers[c].stats();
        }
    }
    for (unsigned c = 0; c < cores; ++c) {
        if (!written[c]) {
            std::fprintf(stderr, "failed to write %s: %s\n",
                         paths[c].c_str(), written[c].message().c_str());
            return 1;
        }
        const std::uint64_t disk = traceFileSizeBytes(paths[c]);
        std::printf("wrote %s (%llu records, %llu instructions, "
                    "%.1f KiB in memory -> %.1f KiB on disk)\n",
                    paths[c].c_str(),
                    static_cast<unsigned long long>(stats[c].records),
                    static_cast<unsigned long long>(stats[c].instructions),
                    static_cast<double>(stats[c].raw_bytes) / 1024.0,
                    static_cast<double>(disk) / 1024.0);
    }
    return 0;
}

int
convert(const std::string &in_path, const std::string &out_path)
{
    TraceBuffer buf;
    ChampSimImportStats stats;
    if (TraceIoResult r = importChampSimTrace(in_path, buf, &stats); !r) {
        std::fprintf(stderr, "cannot import %s: %s\n", in_path.c_str(),
                     r.message().c_str());
        return 1;
    }
    if (TraceIoResult r = writeTraceFileV2(out_path, buf); !r) {
        std::fprintf(stderr, "failed to write %s: %s\n", out_path.c_str(),
                     r.message().c_str());
        return 1;
    }
    std::printf("imported %s: %llu instructions -> %llu loads, "
                "%llu stores, %llu folded into gaps\n",
                in_path.c_str(),
                static_cast<unsigned long long>(stats.instructions),
                static_cast<unsigned long long>(stats.loads),
                static_cast<unsigned long long>(stats.stores),
                static_cast<unsigned long long>(stats.memless));
    std::printf("wrote %s (%zu records, %llu bytes on disk)\n",
                out_path.c_str(), buf.size(),
                static_cast<unsigned long long>(
                    traceFileSizeBytes(out_path)));
    std::printf("run it with: trace_tools simulate %s\n",
                out_path.c_str());
    return 0;
}

int
simulate(const std::string &input, const std::string &prefetcher,
         unsigned iterations)
{
    const unsigned cores = TraceFileWorkload::detectCores(input);
    if (cores == 0) {
        std::fprintf(stderr,
                     "%s: no trace file (nor %s.c0.rnrt) found\n",
                     input.c_str(), input.c_str());
        return 1;
    }
    ExperimentConfig cfg;
    cfg.app = "tracefile";
    cfg.input = input;
    cfg.cores = cores;
    cfg.iterations = iterations;
    try {
        cfg.prefetcher = prefetcherKindFromString(prefetcher);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    std::printf("simulating %s (%u core%s)\n", cfg.key().c_str(), cores,
                cores == 1 ? "" : "s");
    const ExperimentResult res = runExperimentUncached(cfg);
    for (std::size_t i = 0; i < res.iterations.size(); ++i) {
        const IterStats &it = res.iterations[i];
        std::printf("  iter %zu: %llu cycles, %llu instrs, "
                    "%llu L2 misses, %llu prefetches (%llu useful)\n",
                    i, static_cast<unsigned long long>(it.cycles),
                    static_cast<unsigned long long>(it.instructions),
                    static_cast<unsigned long long>(it.l2_demand_misses),
                    static_cast<unsigned long long>(it.pf_issued),
                    static_cast<unsigned long long>(it.pf_useful));
    }
    return 0;
}

int
stats(const std::string &path)
{
    std::uint32_t version = 0;
    if (TraceIoResult r = probeTraceFileVersion(path, version); !r) {
        std::fprintf(stderr, "cannot probe %s: %s\n", path.c_str(),
                     r.message().c_str());
        return 1;
    }
    TraceFileStats s;
    if (TraceIoResult r = readAnyTraceFileStats(path, s); !r) {
        std::fprintf(stderr, "cannot summarise %s: %s\n", path.c_str(),
                     r.message().c_str());
        return 1;
    }
    const std::uint64_t disk = traceFileSizeBytes(path);
    const std::uint64_t v1 = v1FileBytes(s.records);
    std::printf("%s: format v%u\n", path.c_str(), version);
    std::printf("  records=%llu loads=%llu stores=%llu controls=%llu "
                "instructions=%llu\n",
                static_cast<unsigned long long>(s.records),
                static_cast<unsigned long long>(s.loads),
                static_cast<unsigned long long>(s.stores),
                static_cast<unsigned long long>(s.controls),
                static_cast<unsigned long long>(s.instructions));
    std::printf("  address span: 0x%llx .. 0x%llx\n",
                static_cast<unsigned long long>(s.min_addr),
                static_cast<unsigned long long>(s.max_addr));
    std::printf("  on disk: %llu bytes; uncompressed v1 equivalent: "
                "%llu bytes (%.2fx)\n",
                static_cast<unsigned long long>(disk),
                static_cast<unsigned long long>(v1),
                disk ? static_cast<double>(v1) / static_cast<double>(disk)
                     : 0.0);
    return 0;
}

int
corpus()
{
    const std::vector<TraceStore::Entry> entries =
        TraceStore::instance().listEntries();
    std::printf("trace store at %s: %zu entries\n",
                TraceStore::rootPath().c_str(), entries.size());
    std::uint64_t raw = 0, stored = 0;
    for (const TraceStore::Entry &e : entries) {
        std::printf("  %s: %u iter x %u cores, %llu records, "
                    "%.1f MiB raw -> %.1f MiB stored (%.1fx)\n",
                    e.key.c_str(), e.iterations, e.cores,
                    static_cast<unsigned long long>(e.records),
                    static_cast<double>(e.raw_bytes) / (1024.0 * 1024.0),
                    static_cast<double>(e.stored_bytes) /
                        (1024.0 * 1024.0),
                    e.stored_bytes ? static_cast<double>(e.raw_bytes) /
                                         static_cast<double>(
                                             e.stored_bytes)
                                   : 0.0);
        raw += e.raw_bytes;
        stored += e.stored_bytes;
    }
    if (!entries.empty())
        std::printf("total: %.1f MiB raw -> %.1f MiB stored (%.1fx)\n",
                    static_cast<double>(raw) / (1024.0 * 1024.0),
                    static_cast<double>(stored) / (1024.0 * 1024.0),
                    stored ? static_cast<double>(raw) /
                                 static_cast<double>(stored)
                           : 0.0);
    return 0;
}

// ---- ckpt and gc: store maintenance ----

int
ckptList()
{
    const std::string root = ckpt::CheckpointStore::rootPath();
    const std::vector<std::string> files =
        ckpt::CheckpointStore::instance().blobs().entryPaths();
    std::printf("checkpoint store at %s: %zu snapshot%s\n", root.c_str(),
                files.size(), files.size() == 1 ? "" : "s");
    std::uint64_t total = 0;
    for (const std::string &path : files) {
        const std::string name =
            std::filesystem::path(path).filename().string();
        std::vector<std::uint8_t> blob;
        BlobStore::Header h;
        if (const ckpt::CkptIoResult r = BlobStore::readFile(path, blob, h);
            !r.ok()) {
            std::printf("  %s: CORRUPT (%s)\n", name.c_str(),
                        r.message().c_str());
            continue;
        }
        std::printf("  %s: \"%s\", %.1f KiB\n", name.c_str(),
                    h.key.c_str(), static_cast<double>(blob.size()) / 1024.0);
        total += blob.size();
    }
    if (!files.empty())
        std::printf("total: %.1f KiB\n", static_cast<double>(total) / 1024.0);
    return 0;
}

int
ckptInspect(const std::string &path)
{
    std::vector<std::uint8_t> blob;
    BlobStore::Header h;
    if (const ckpt::CkptIoResult r = BlobStore::readFile(path, blob, h);
        !r.ok()) {
        std::fprintf(stderr, "cannot inspect %s: %s\n", path.c_str(),
                     r.message().c_str());
        return 1;
    }
    std::printf("%s: rnr blob, %zu bytes, checksum 0x%016llx\n",
                path.c_str(), blob.size(),
                static_cast<unsigned long long>(h.checksum));
    std::printf("  key:     %s\n", h.key.c_str());
    std::printf("  payload: %zu bytes\n", h.payload_len);
    return 0;
}

int
ckptMain(int argc, char **argv)
{
    const std::string sub = argc >= 3 ? argv[2] : "";
    if (sub == "list")
        return ckptList();
    if (sub == "inspect" && argc >= 4)
        return ckptInspect(argv[3]);
    std::fprintf(stderr, "usage: %s ckpt list | inspect <file>\n", argv[0]);
    return 2;
}

int
gcMain(int argc, char **argv)
{
    std::uint64_t max_bytes = 0;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--max-bytes") != 0 || i + 1 >= argc) {
            std::fprintf(stderr, "usage: %s gc [--max-bytes <n>]\n",
                         argv[0]);
            return 2;
        }
        max_bytes = std::strtoull(argv[++i], nullptr, 10);
    }
    const std::pair<const char *, BlobStore *> stores[] = {
        {"results", &ResultCache::instance().blobs()},
        {"traces", &TraceStore::instance().blobs()},
        {"snapshots", &ckpt::CheckpointStore::instance().blobs()},
    };
    for (const auto &[what, store] : stores) {
        const BlobStore::GcResult r = store->gc(max_bytes);
        std::printf("%s gc at %s: removed %zu corrupt, %zu stale, evicted "
                    "%zu over cap; %.1f KiB kept\n",
                    what, store->root().c_str(), r.corrupt, r.stale,
                    r.evicted, static_cast<double>(r.kept_bytes) / 1024.0);
    }
    return 0;
}

const char *
opName(RnrOp op)
{
    switch (op) {
      case RnrOp::Init: return "RnR.init";
      case RnrOp::AddrBaseSet: return "AddrBase.set";
      case RnrOp::AddrEnable: return "AddrBase.enable";
      case RnrOp::AddrDisable: return "AddrBase.disable";
      case RnrOp::WindowSizeSet: return "WindowSize.set";
      case RnrOp::Start: return "PrefetchState.start";
      case RnrOp::Replay: return "PrefetchState.replay";
      case RnrOp::Pause: return "PrefetchState.pause";
      case RnrOp::Resume: return "PrefetchState.resume";
      case RnrOp::EndState: return "PrefetchState.end";
      case RnrOp::Free: return "RnR.end";
    }
    return "?";
}

int
inspect(const std::string &path)
{
    TraceBuffer buf;
    if (TraceIoResult r = readAnyTraceFile(path, buf); !r) {
        std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                     r.message().c_str());
        return 1;
    }
    std::printf("%s: %zu records\n", path.c_str(), buf.size());
    std::printf("  loads=%llu stores=%llu controls=%llu instrs=%llu\n",
                static_cast<unsigned long long>(buf.loads()),
                static_cast<unsigned long long>(buf.stores()),
                static_cast<unsigned long long>(buf.controls()),
                static_cast<unsigned long long>(buf.instructions()));

    std::map<std::uint32_t, std::uint64_t> sites;
    for (const TraceRecord &r : buf.records()) {
        if (r.kind == RecordKind::Control) {
            std::printf("  control: %s(0x%llx, %llu)\n", opName(r.ctrl),
                        static_cast<unsigned long long>(r.addr),
                        static_cast<unsigned long long>(r.aux));
        } else {
            ++sites[r.pc];
        }
    }
    std::printf("  access sites:\n");
    for (const auto &[pc, n] : sites)
        std::printf("    pc %u: %llu accesses\n", pc,
                    static_cast<unsigned long long>(n));
    return 0;
}

int
rnrTrace(const std::string &app, const std::string &input,
         const std::string &json_out, std::size_t ring_capacity)
{
    ExperimentConfig cfg;
    cfg.app = app;
    cfg.input = input;
    cfg.prefetcher = PrefetcherKind::Rnr;

    std::printf("simulating %s with event tracing...\n",
                cfg.key().c_str());
    TraceCollector tr(cfg.cores, ring_capacity);
    const ExperimentResult res =
        runExperimentUncached(cfg, {.trace = &tr});

    const ReplayDiagnostics diag = buildReplayDiagnostics(tr);
    std::printf("\nper-window replay diagnostics (all iterations):\n%s",
                formatReplayDiagnostics(diag).c_str());

    // Cross-check the report against the iteration-level Fig 11
    // counters; the emit sites are shared, so this must be exact.
    std::uint64_t ontime = 0, early = 0, late = 0, oow = 0;
    for (const IterStats &it : res.iterations) {
        ontime += it.rnr_ontime;
        early += it.rnr_early;
        late += it.rnr_late;
        oow += it.rnr_out_of_window;
    }
    std::printf("\niteration rnr_* counters: ontime=%llu early=%llu "
                "late=%llu out-of-window=%llu\n",
                static_cast<unsigned long long>(ontime),
                static_cast<unsigned long long>(early),
                static_cast<unsigned long long>(late),
                static_cast<unsigned long long>(oow));
    std::printf("events: %llu collected, %llu lost to ring wrap, "
                "%u tracks\n",
                static_cast<unsigned long long>(tr.eventsTotal()),
                static_cast<unsigned long long>(tr.eventsOverwritten()),
                tr.trackCount());

    if (!json_out.empty()) {
        if (!writeChromeTrace(json_out, tr)) {
            std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
            return 1;
        }
        std::printf("wrote %s (open in ui.perfetto.dev or "
                    "chrome://tracing)\n",
                    json_out.c_str());
    }

    const bool reconciled = diag.total.ontime == ontime &&
                            diag.total.early == early &&
                            diag.total.late == late &&
                            diag.total.out_of_window == oow;
    std::printf("report/counter reconciliation: %s\n",
                reconciled ? "exact" : "MISMATCH");
    return reconciled ? 0 : 1;
}

int
report(const std::string &app, const std::string &input,
       const std::string &prefix, Tick sample_cycles, unsigned iterations,
       unsigned cores)
{
    ExperimentConfig base;
    base.app = app;
    base.input = input;
    base.prefetcher = PrefetcherKind::None;
    if (iterations)
        base.iterations = iterations;
    if (cores)
        base.cores = cores;
    ExperimentConfig rnr_cfg = base;
    rnr_cfg.prefetcher = PrefetcherKind::Rnr;

    std::printf("building report for %s/%s (baseline + rnr)...\n",
                app.c_str(), input.c_str());
    const SweepReport rep = buildSweepReport(
        {base, rnr_cfg}, app + "/" + input, sample_cycles);

    if (!writeReport(prefix, rep)) {
        std::fprintf(stderr, "failed to write %s.{json,html}\n",
                     prefix.c_str());
        return 1;
    }
    std::size_t series = 0, hists = 0;
    for (const ReportCell &c : rep.cells)
        if (c.result.telemetry) {
            series += c.result.telemetry->series.size();
            hists += c.result.telemetry->histograms.size();
        }
    std::printf("wrote %s.json and %s.html (%zu cells, %zu series, "
                "%zu histograms, sampled every %llu cycles)\n",
                prefix.c_str(), prefix.c_str(), rep.cells.size(), series,
                hists,
                static_cast<unsigned long long>(rep.sample_cycles));
    return 0;
}

int
attribCmd(const std::string &app, const std::string &input,
          const std::string &pf_name, unsigned iterations, unsigned cores)
{
    ExperimentConfig cfg;
    cfg.app = app;
    cfg.input = input;
    try {
        cfg.prefetcher = prefetcherKindFromString(pf_name);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "attrib: %s\n", e.what());
        return 2;
    }
    if (iterations)
        cfg.iterations = iterations;
    if (cores)
        cfg.cores = cores;

    std::fprintf(stderr, "simulating %s with attribution...\n",
                 cfg.key().c_str());
    AttribCollector at;
    const ExperimentResult res =
        runExperimentUncached(cfg, {.attrib = &at});
    const AttribBlob &ab = *res.attrib;

    // The stdout contract: exactly one line, the rnr-attrib-v1 object
    // (tests/tools/trace_tools_cli_test.cc parses it).  Flush before
    // the stderr verdict so a merged 2>&1 capture can't interleave the
    // verdict into the middle of the (pipe-buffered) JSON line.
    std::printf("%s\n", attribJson(ab).c_str());
    std::fflush(stdout);

    // Cross-check against the iteration-level counters; the hooks sit
    // on the exact counter-bump lines, so this must be exact.
    std::uint64_t issued = 0, useful = 0, merged = 0;
    std::uint64_t ontime = 0, early = 0, late = 0, oow = 0;
    for (const IterStats &it : res.iterations) {
        issued += it.pf_issued;
        useful += it.pf_useful;
        merged += it.pf_late_merged;
        ontime += it.rnr_ontime;
        early += it.rnr_early;
        late += it.rnr_late;
        oow += it.rnr_out_of_window;
    }
    const bool reconciled =
        ab.totals.issued == issued && ab.totals.useful == useful &&
        ab.totals.late_merged == merged && ab.rnr_ontime == ontime &&
        ab.rnr_early == early && ab.rnr_late == late &&
        ab.rnr_out_of_window == oow;
    std::fprintf(stderr, "attrib/counter reconciliation: %s\n",
                 reconciled ? "exact" : "MISMATCH");
    return reconciled ? 0 : 1;
}

// ---- sweep: an ad-hoc batch through SweepRunner ----

/** One workload under a comma-separated prefetcher list, run as one
 *  sweep; the export is the same rnr-sweep JSON every bench writes. */
int
sweepCmd(int argc, char **argv)
{
    std::string json, label = "sweep";
    std::string app = "pagerank", input = "urand";
    std::string prefetchers = "none,nextline,stride,rnr";
    unsigned iterations = 0, cores = 0;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--json" && v) {
            json = v;
            ++i;
        } else if (arg == "--label" && v) {
            label = v;
            ++i;
        } else if (arg == "--app" && v) {
            app = v;
            ++i;
        } else if (arg == "--input" && v) {
            input = v;
            ++i;
        } else if (arg == "--prefetchers" && v) {
            prefetchers = v;
            ++i;
        } else if (arg == "--iterations" && v && std::atoi(v) > 0) {
            iterations = static_cast<unsigned>(std::atoi(v));
            ++i;
        } else if (arg == "--cores" && v && std::atoi(v) > 0) {
            cores = static_cast<unsigned>(std::atoi(v));
            ++i;
        } else {
            std::fprintf(stderr, "sweep: bad argument '%s'\n",
                         arg.c_str());
            return 2;
        }
    }

    std::vector<ExperimentConfig> cells;
    std::stringstream ss(prefetchers);
    std::string name;
    while (std::getline(ss, name, ',')) {
        if (name.empty())
            continue;
        ExperimentConfig cfg;
        cfg.app = app;
        cfg.input = input;
        try {
            cfg.prefetcher = prefetcherKindFromString(name);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "sweep: %s\n", e.what());
            return 2;
        }
        if (iterations)
            cfg.iterations = iterations;
        if (cores)
            cfg.cores = cores;
        cells.push_back(cfg);
    }
    if (cells.empty()) {
        std::fprintf(stderr, "sweep: no cells\n");
        return 2;
    }

    SweepOptions opts;
    opts.label = label;
    opts.json_out = json;
    SweepRunner runner(opts);
    runner.add(cells);
    try {
        runner.run();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sweep: %s\n", e.what());
        return 1;
    }
    const SweepStats &st = runner.stats();
    std::printf("sweep: %zu cells, %zu simulated, %zu cached\n", st.cells,
                st.simulated, st.cache_hits);
    return 0;
}

// ---- Mode registry: one row per mode, shared by usage and `help` ----

struct ModeHelp {
    const char *name;
    const char *usage; ///< Arguments, without the program/mode prefix.
    const char *what;  ///< One-line description.
};

constexpr ModeHelp kModes[] = {
    {"capture", "<app> <input> <iter> <prefix> [--v1]",
     "record one algorithm iteration as per-core .rnrt trace files"},
    {"convert", "<champsim.trace> <out.rnrt>",
     "import a raw ChampSim instruction trace as a v2 trace file"},
    {"simulate", "<file-or-prefix> [prefetcher] [iters]",
     "replay a trace file through the simulator and print counters"},
    {"stats", "<file.rnrt>",
     "decode-free trace file summary and compression ratio"},
    {"corpus", "",
     "list the trace store's entries ($RNR_TRACE_DIR)"},
    {"ckpt", "list|inspect [<file>]",
     "checkpoint store: list snapshots, or decode one blob's header"},
    {"gc", "[--max-bytes <n>]",
     "drop corrupt, stale and over-cap entries from all three stores"},
    {"inspect", "<file.rnrt>",
     "full decode: record counts, access sites, RnR control calls"},
    {"rnr-trace", "[app] [input] [trace.json] [--trace-buf <events>]",
     "traced RnR run: replay diagnostics + Chrome trace JSON"},
    {"attrib", "[app] [input] [prefetcher] [--iterations <n>] "
               "[--cores <n>]",
     "attributed run: rnr-attrib-v1 JSON (per-site/per-region tables, "
     "pollution); exits 1 on counter mismatch"},
    {"report", "[app] [input] [out-prefix] [--sample-cycles <n>] "
               "[--iterations <n>] [--cores <n>]",
     "telemetry report: <prefix>.json + self-contained <prefix>.html"},
    {"sweep", "[--app <a>] [--input <i>] [--prefetchers <p,...>] "
              "[--iterations <n>] [--cores <n>] [--json <path>] "
              "[--label <l>]",
     "run one workload under a prefetcher list as a sweep; writes "
     "rnr-sweep JSON"},
    {"help", "[mode]",
     "print this overview, or one mode's usage"},
};

const ModeHelp *
findMode(const char *name)
{
    for (const ModeHelp &m : kModes)
        if (std::strcmp(m.name, name) == 0)
            return &m;
    return nullptr;
}

int
printUsage(std::FILE *to, const char *prog)
{
    std::fprintf(to, "usage:\n");
    for (const ModeHelp &m : kModes)
        std::fprintf(to, "  %s %s %s\n", prog, m.name, m.usage);
    std::fprintf(to, "run '%s help <mode>' for what each mode does\n",
                 prog);
    return to == stderr ? 2 : 0;
}

int
printModeHelp(const char *prog, const ModeHelp &m)
{
    std::printf("usage: %s %s %s\n%s\n", prog, m.name, m.usage, m.what);
    return 0;
}

/** `help --markdown`: the mode table as GitHub markdown, generated
 *  from kModes so README.md's copy can never drift from the registry
 *  (the CLI diff test compares the two byte-for-byte). */
int
printMarkdownTable()
{
    std::printf("| Mode | Arguments | Description |\n");
    std::printf("|---|---|---|\n");
    for (const ModeHelp &m : kModes)
        std::printf("| `%s` | %s%s%s | %s |\n", m.name,
                    m.usage[0] ? "`" : "", m.usage,
                    m.usage[0] ? "`" : "", m.what);
    return 0;
}

bool
wantsHelp(int argc, char **argv)
{
    for (int i = 2; i < argc; ++i)
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0)
            return true;
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2) {
        // `help [mode]`, `--help` and `-h` all land here; a known mode
        // followed by --help/-h prints that mode's usage below.
        if (std::strcmp(argv[1], "help") == 0 ||
            std::strcmp(argv[1], "--help") == 0 ||
            std::strcmp(argv[1], "-h") == 0) {
            if (argc >= 3) {
                if (std::strcmp(argv[2], "--markdown") == 0)
                    return printMarkdownTable();
                if (const ModeHelp *m = findMode(argv[2]))
                    return printModeHelp(argv[0], *m);
            }
            return printUsage(stdout, argv[0]);
        }
        if (const ModeHelp *m = findMode(argv[1])) {
            if (wantsHelp(argc, argv))
                return printModeHelp(argv[0], *m);
        } else {
            return printUsage(stderr, argv[0]);
        }
    }
    if (argc >= 6 && std::strcmp(argv[1], "capture") == 0) {
        bool v1 = false;
        std::vector<std::string> pos;
        for (int i = 2; i < argc; ++i) {
            if (std::strcmp(argv[i], "--v1") == 0)
                v1 = true;
            else
                pos.emplace_back(argv[i]);
        }
        if (pos.size() >= 4)
            return capture(pos[0], pos[1],
                           static_cast<unsigned>(std::atoi(
                               pos[2].c_str())),
                           pos[3], v1);
    }
    if (argc >= 4 && std::strcmp(argv[1], "convert") == 0)
        return convert(argv[2], argv[3]);
    if (argc >= 3 && std::strcmp(argv[1], "simulate") == 0) {
        const std::string pf = argc >= 4 ? argv[3] : "rnr";
        const unsigned iters =
            argc >= 5 ? static_cast<unsigned>(std::atoi(argv[4])) : 3;
        return simulate(argv[2], pf, iters);
    }
    if (argc >= 3 && std::strcmp(argv[1], "stats") == 0)
        return stats(argv[2]);
    if (argc >= 2 && std::strcmp(argv[1], "sweep") == 0)
        return sweepCmd(argc, argv);
    if (argc >= 2 && std::strcmp(argv[1], "corpus") == 0)
        return corpus();
    if (argc >= 2 && std::strcmp(argv[1], "ckpt") == 0)
        return ckptMain(argc, argv);
    if (argc >= 2 && std::strcmp(argv[1], "gc") == 0)
        return gcMain(argc, argv);
    if (argc >= 3 && std::strcmp(argv[1], "inspect") == 0)
        return inspect(argv[2]);
    if (argc >= 2 && std::strcmp(argv[1], "rnr-trace") == 0) {
        std::string app = "pagerank", input = "urand";
        std::string out = "rnr_trace.json";
        std::size_t buf = 0;
        std::vector<std::string> pos;
        for (int i = 2; i < argc; ++i) {
            if (std::strcmp(argv[i], "--trace-buf") == 0 && i + 1 < argc)
                buf = static_cast<std::size_t>(std::atoll(argv[++i]));
            else
                pos.emplace_back(argv[i]);
        }
        if (pos.size() > 0)
            app = pos[0];
        if (pos.size() > 1)
            input = pos[1];
        if (pos.size() > 2)
            out = pos[2];
        return rnrTrace(app, input, out, buf);
    }
    if (argc >= 2 && std::strcmp(argv[1], "attrib") == 0) {
        std::string app = "pagerank", input = "urand", pf = "rnr";
        unsigned iterations = 0, cores = 0;
        std::vector<std::string> pos;
        for (int i = 2; i < argc; ++i) {
            if (std::strcmp(argv[i], "--iterations") == 0 &&
                i + 1 < argc)
                iterations =
                    static_cast<unsigned>(std::atoi(argv[++i]));
            else if (std::strcmp(argv[i], "--cores") == 0 &&
                     i + 1 < argc)
                cores = static_cast<unsigned>(std::atoi(argv[++i]));
            else
                pos.emplace_back(argv[i]);
        }
        if (pos.size() > 3 ||
            (!pos.empty() && pos.back().rfind("--", 0) == 0)) {
            const ModeHelp *m = findMode("attrib");
            std::fprintf(stderr, "usage: %s %s %s\n", argv[0], m->name,
                         m->usage);
            return 2;
        }
        if (pos.size() > 0)
            app = pos[0];
        if (pos.size() > 1)
            input = pos[1];
        if (pos.size() > 2)
            pf = pos[2];
        return attribCmd(app, input, pf, iterations, cores);
    }
    if (argc >= 2 && std::strcmp(argv[1], "report") == 0) {
        std::string app = "pagerank", input = "urand";
        std::string prefix = "rnr_report";
        Tick sample_cycles = 0;
        unsigned iterations = 0, cores = 0;
        std::vector<std::string> pos;
        for (int i = 2; i < argc; ++i) {
            if (std::strcmp(argv[i], "--sample-cycles") == 0 &&
                i + 1 < argc)
                sample_cycles =
                    static_cast<Tick>(std::atoll(argv[++i]));
            else if (std::strcmp(argv[i], "--iterations") == 0 &&
                     i + 1 < argc)
                iterations =
                    static_cast<unsigned>(std::atoi(argv[++i]));
            else if (std::strcmp(argv[i], "--cores") == 0 &&
                     i + 1 < argc)
                cores = static_cast<unsigned>(std::atoi(argv[++i]));
            else
                pos.emplace_back(argv[i]);
        }
        if (pos.size() > 0)
            app = pos[0];
        if (pos.size() > 1)
            input = pos[1];
        if (pos.size() > 2)
            prefix = pos[2];
        return report(app, input, prefix, sample_cycles, iterations,
                      cores);
    }
    // A known mode with the wrong arity falls through to here.
    return printUsage(stderr, argv[0]);
}
