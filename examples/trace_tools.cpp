/**
 * @file
 * Trace capture & inspection tool — the ChampSim-style capture-once,
 * replay-many workflow.
 *
 *   trace_tools capture <app> <input> <iteration> <out-prefix>
 *       Emits one compressed (v2) .rnrt file per core for the given
 *       algorithm iteration (0 = the record iteration with RnR setup
 *       calls).  Each core's records stream into its file a block at
 *       a time, so no iteration is held in memory.
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
 *       Decode-free summary from the footer plus the compression ratio
 *       against the raw records (32 B each), the "raw" that capture
 *       and corpus print.
 *
 *   trace_tools corpus
 *       Lists the trace store's entries ($RNR_TRACE_DIR).
 *
 *   trace_tools gc [--max-bytes <n>]
 *       Store maintenance over the result and trace stores:
 *       deletes corrupt entries, temp leftovers and entries of another
 *       model epoch, and with --max-bytes <n> evicts each store's
 *       oldest entries until it fits the cap.
 *
 *   trace_tools inspect <file.rnrt>
 *       Prints a full decode: record counts, instruction count,
 *       access-site histogram and the embedded RnR control calls.
 *       The file streams through one decoded block at a time.
 *
 *   trace_tools explain [app] [input] [prefetcher]
 *       Simulates one cell (default pagerank/urand/rnr) with the event
 *       trace, telemetry and attribution attached, plus its
 *       no-prefetcher baseline, and prints one rnr-explain-v1 JSON
 *       document on stdout (harness/explain.h): the cell and baseline
 *       counters, derived metrics, per-window replay table, attribution
 *       and telemetry.  Exits 1 when the attribution or window totals
 *       fail to reconcile with the iteration counters, 2 on bad usage
 *       or an unknown prefetcher.  Honours --iterations/--cores.
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
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include <algorithm>

#include "harness/explain.h"
#include "harness/result_cache.h"
#include "harness/runner.h"
#include "harness/sweep.h"
#include "sim/attrib.h"
#include "sim/timeseries.h"
#include "sim/trace_event.h"
#include "trace/trace_io.h"
#include "tracestore/champsim_import.h"
#include "tracestore/trace_codec.h"
#include "tracestore/trace_reader.h"
#include "tracestore/trace_store.h"
#include "tracestore/trace_writer.h"
#include "workloads/trace_replay.h"

using namespace rnr;

namespace {

/** Drops every record: the iterations before the captured one. */
struct DiscardSink final : TraceSink {
    void write(const TraceRecord *, std::size_t) override {}
};

int
capture(const std::string &app, const std::string &input, unsigned iter,
        const std::string &prefix)
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
    // Each core's records stream into its file a block at a time.
    std::vector<TraceFileWriter> writers(cores);
    std::vector<TraceSink *> sinks;
    std::vector<TraceIoResult> written(cores);
    for (unsigned c = 0; c < cores; ++c) {
        written[c] = writers[c].open(paths[c]);
        sinks.push_back(&writers[c]);
    }
    wl->emitIteration(iter, false, sinks);
    for (unsigned c = 0; c < cores; ++c) {
        const TraceIoResult closed = writers[c].close();
        if (written[c])
            written[c] = closed;
    }
    for (unsigned c = 0; c < cores; ++c) {
        if (!written[c]) {
            std::fprintf(stderr, "failed to write %s: %s\n",
                         paths[c].c_str(), written[c].message().c_str());
            return 1;
        }
        const TraceFileStats &st = writers[c].stats();
        const std::uint64_t disk = traceFileSizeBytes(paths[c]);
        std::printf("wrote %s (%llu records, %llu instructions, "
                    "%.1f KiB in memory -> %.1f KiB on disk)\n",
                    paths[c].c_str(),
                    static_cast<unsigned long long>(st.records),
                    static_cast<unsigned long long>(st.instructions),
                    static_cast<double>(st.raw_bytes) / 1024.0,
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
    TraceFileStats s;
    if (TraceIoResult r = readTraceFileV2Stats(path, s); !r) {
        std::fprintf(stderr, "cannot summarise %s: %s\n", path.c_str(),
                     r.message().c_str());
        return 1;
    }
    const std::uint64_t disk = traceFileSizeBytes(path);
    std::printf("%s: format v%u\n", path.c_str(), kTraceFormatVersionV2);
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
    std::printf("  on disk: %llu bytes; raw records: %llu bytes (%.2fx)\n",
                static_cast<unsigned long long>(disk),
                static_cast<unsigned long long>(s.raw_bytes),
                disk ? static_cast<double>(s.raw_bytes) /
                           static_cast<double>(disk)
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

// ---- gc: store maintenance ----

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
    StreamingTraceReader reader;
    TraceIoResult r = reader.open(path);
    // Counts and sites accumulate one decoded block at a time; only the
    // few control records are kept, to print after the counts.
    std::uint64_t records = 0, loads = 0, stores = 0, instrs = 0;
    std::vector<TraceRecord> controls;
    std::map<std::uint32_t, std::uint64_t> sites;
    std::size_t n = 0;
    while (const TraceRecord *run = r ? reader.takeBlock(n) : nullptr) {
        records += n;
        for (std::size_t i = 0; i < n; ++i) {
            const TraceRecord &rec = run[i];
            instrs += rec.gap;
            if (rec.kind == RecordKind::Control) {
                controls.push_back(rec);
                continue;
            }
            ++instrs;
            ++sites[rec.pc];
            if (rec.kind == RecordKind::Load)
                ++loads;
            else
                ++stores;
        }
    }
    if (r && reader.error())
        r = reader.errorResult();
    if (!r) {
        std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                     r.message().c_str());
        return 1;
    }
    std::printf("%s: %llu records\n", path.c_str(),
                static_cast<unsigned long long>(records));
    std::printf("  loads=%llu stores=%llu controls=%zu instrs=%llu\n",
                static_cast<unsigned long long>(loads),
                static_cast<unsigned long long>(stores), controls.size(),
                static_cast<unsigned long long>(instrs));
    for (const TraceRecord &c : controls)
        std::printf("  control: %s(0x%llx, %llu)\n", opName(c.ctrl),
                    static_cast<unsigned long long>(c.addr),
                    static_cast<unsigned long long>(c.aux));
    std::printf("  access sites:\n");
    for (const auto &[pc, count] : sites)
        std::printf("    pc %u: %llu accesses\n", pc,
                    static_cast<unsigned long long>(count));
    return 0;
}

int
explain(const std::string &app, const std::string &input,
        const std::string &pf_name, unsigned iterations, unsigned cores)
{
    ExperimentConfig cfg;
    cfg.app = app;
    cfg.input = input;
    try {
        cfg.prefetcher = prefetcherKindFromString(pf_name);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "explain: %s\n", e.what());
        return 2;
    }
    if (iterations)
        cfg.iterations = iterations;
    if (cores)
        cfg.cores = cores;

    std::fprintf(stderr, "explaining %s...\n", cfg.key().c_str());
    TraceCollector tr(cfg.cores);
    TelemetrySampler tm;
    AttribCollector at;
    ExperimentResult res, base;
    const bool has_base = cfg.prefetcher != PrefetcherKind::None;
    try {
        res = runExperimentUncached(
            cfg, {.trace = &tr, .telemetry = &tm, .attrib = &at});
        if (has_base)
            base = runBaseline(cfg);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "explain: %s\n", e.what());
        return 1;
    }

    // stdout is exactly the document; flush it before the stderr
    // verdict so a merged 2>&1 capture cannot interleave the two.
    std::fputs(explainJson(res, has_base ? &base : nullptr, &tr).c_str(),
               stdout);
    std::fflush(stdout);

    const std::string bad = explainMismatch(res, &tr);
    std::fprintf(stderr, "explain: counter reconciliation: %s\n",
                 bad.empty() ? "exact" : ("MISMATCH: " + bad).c_str());
    return bad.empty() ? 0 : 1;
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
    {"capture", "<app> <input> <iter> <prefix>",
     "record one algorithm iteration as per-core .rnrt trace files"},
    {"convert", "<champsim.trace> <out.rnrt>",
     "import a raw ChampSim instruction trace as a v2 trace file"},
    {"simulate", "<file-or-prefix> [prefetcher] [iters]",
     "replay a trace file through the simulator and print counters"},
    {"stats", "<file.rnrt>",
     "decode-free trace file summary and compression ratio"},
    {"corpus", "",
     "list the trace store's entries ($RNR_TRACE_DIR)"},
    {"gc", "[--max-bytes <n>]",
     "drop corrupt, stale and over-cap entries from both stores"},
    {"inspect", "<file.rnrt>",
     "full decode: record counts, access sites, RnR control calls"},
    {"explain", "[app] [input] [prefetcher] [--iterations <n>] "
                "[--cores <n>]",
     "one cell explained: rnr-explain-v1 JSON (counters, metrics, "
     "replay windows, attribution, telemetry); exits 1 on counter "
     "mismatch"},
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
    if (argc >= 6 && std::strcmp(argv[1], "capture") == 0)
        return capture(argv[2], argv[3],
                       static_cast<unsigned>(std::atoi(argv[4])), argv[5]);
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
    if (argc >= 2 && std::strcmp(argv[1], "gc") == 0)
        return gcMain(argc, argv);
    if (argc >= 3 && std::strcmp(argv[1], "inspect") == 0)
        return inspect(argv[2]);
    if (argc >= 2 && std::strcmp(argv[1], "explain") == 0) {
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
            const ModeHelp *m = findMode("explain");
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
        return explain(app, input, pf, iterations, cores);
    }
    // A known mode with the wrong arity falls through to here.
    return printUsage(stderr, argv[0]);
}
