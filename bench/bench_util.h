/**
 * @file
 * Shared plumbing for the per-figure bench binaries: the evaluation
 * matrix (Section VI's workloads x inputs), the prefetcher line-up of
 * the figures, sweep/CLI plumbing and table-printing helpers.
 *
 * Each bench enumerates its full matrix up front and hands it to the
 * parallel SweepRunner (harness/sweep.h), which fills the shared result
 * cache (rnr_results.cache) on every core; the print loops then read
 * the warm cache.  Shared flags, parsed by parseBenchArgs():
 *
 *   --jobs <n>        thread-pool width        (or RNR_JOBS=<n>)
 *   --json <path>     structured result export (or RNR_JSON_OUT=<path>)
 *   --quiet           silence progress         (or RNR_PROGRESS=0)
 *   --trace-dir <p>   trace-store corpus dir   (or RNR_TRACE_DIR=<p>)
 *
 * This header also hosts the bench-regression gate
 * (`micro_hotpath compare`, benchCompareMain below): it loads two
 * benchmark JSON files — google-benchmark's --benchmark_out format or
 * the committed rnr-hotpath-v1 trajectory file — and exits non-zero
 * when any common benchmark's items_per_second regressed by more than
 * the threshold.  CI runs it against BENCH_hotpath.json.
 *
 * See docs/HARNESS.md for the full pipeline walkthrough.
 */
#ifndef RNR_BENCH_BENCH_UTIL_H
#define RNR_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness/json_parse.h"
#include "harness/metrics.h"
#include "harness/runner.h"
#include "harness/sweep.h"
#include "sim/config.h"

namespace rnr::bench {

/** One workload/input cell of the evaluation matrix. */
struct WorkloadRef {
    std::string app;
    std::string input;

    std::string
    label() const
    {
        return app + "/" + input;
    }
};

/** Every workload/input pair of the paper's evaluation. */
inline std::vector<WorkloadRef>
allWorkloads()
{
    std::vector<WorkloadRef> out;
    for (const char *in : {"urand", "amazon", "com-orkut", "roadUSA"}) {
        out.push_back({"pagerank", in});
        out.push_back({"hyperanf", in});
    }
    for (const char *in : {"atmosmodj", "bbmat", "nlpkkt80", "pdb1HYS"})
        out.push_back({"spcg", in});
    return out;
}

/** The prefetcher line-up of Figs 6-9/12 (DROPLET skips spCG). */
inline std::vector<PrefetcherKind>
figurePrefetchers()
{
    return {PrefetcherKind::NextLine, PrefetcherKind::Bingo,
            PrefetcherKind::Stems,    PrefetcherKind::Misb,
            PrefetcherKind::Droplet,  PrefetcherKind::Rnr,
            PrefetcherKind::RnrCombined};
}

inline bool
applicable(PrefetcherKind kind, const WorkloadRef &w)
{
    // "Since DROPLET is designed for graph algorithms, the evaluation
    // results do not include DROPLET when running spCG."
    return !(kind == PrefetcherKind::Droplet && w.app == "spcg");
}

inline ExperimentConfig
makeConfig(const WorkloadRef &w, PrefetcherKind kind)
{
    ExperimentConfig cfg;
    cfg.app = w.app;
    cfg.input = w.input;
    cfg.prefetcher = kind;
    return cfg;
}

/** Points the trace store at @p path for the rest of the process
 *  (the CLI spelling of RNR_TRACE_DIR). */
inline void
setTraceDir(const std::string &path)
{
#ifdef _WIN32
    _putenv_s("RNR_TRACE_DIR", path.c_str());
#else
    setenv("RNR_TRACE_DIR", path.c_str(), 1);
#endif
}

/**
 * Parses the flags shared by every bench binary (--jobs, --json,
 * --trace-dir, --quiet; see the file header) into SweepOptions
 * labelled @p label.  Unknown flags print usage and exit so typos
 * don't silently run the full matrix.
 */
inline SweepOptions
parseBenchArgs(int argc, char **argv, const std::string &label)
{
    SweepOptions opts;
    opts.label = label;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quiet") {
            opts.progress = 0;
        } else if (arg == "--jobs" && i + 1 < argc) {
            opts.jobs = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg.rfind("--jobs=", 0) == 0) {
            opts.jobs = static_cast<unsigned>(
                std::strtoul(arg.c_str() + 7, nullptr, 10));
        } else if (arg == "--json" && i + 1 < argc) {
            opts.json_out = argv[++i];
        } else if (arg.rfind("--json=", 0) == 0) {
            opts.json_out = arg.substr(7);
        } else if (arg == "--trace-dir" && i + 1 < argc) {
            setTraceDir(argv[++i]);
        } else if (arg.rfind("--trace-dir=", 0) == 0) {
            setTraceDir(arg.substr(12));
        } else {
            std::fprintf(stderr,
                         "usage: %s [--jobs <n>] [--json <path>] "
                         "[--trace-dir <path>] [--quiet]\n",
                         argv[0]);
            std::exit(2);
        }
    }
    return opts;
}

/**
 * Runs @p cells on the thread pool, warming the in-process result
 * cache so the figure's print loops below are pure lookups.  Also the
 * point where --json / RNR_JSON_OUT exports the batch.
 */
inline void
precompute(const std::vector<ExperimentConfig> &cells,
           const SweepOptions &opts)
{
    runSweep(cells, opts);
}

/** The standard figure matrix: baseline + line-up per workload. */
inline std::vector<ExperimentConfig>
figureMatrix(bool with_baseline = true, bool with_ideal = false)
{
    std::vector<ExperimentConfig> cells;
    for (const WorkloadRef &w : allWorkloads()) {
        if (with_baseline)
            cells.push_back(makeConfig(w, PrefetcherKind::None));
        for (PrefetcherKind k : figurePrefetchers()) {
            if (applicable(k, w))
                cells.push_back(makeConfig(w, k));
        }
        if (with_ideal) {
            ExperimentConfig ideal = makeConfig(w, PrefetcherKind::None);
            ideal.ideal_llc = true;
            cells.push_back(ideal);
        }
    }
    return cells;
}

/** RnR under each replay-control mode (+ optional baselines). */
inline std::vector<ExperimentConfig>
controlMatrix(bool with_baseline)
{
    std::vector<ExperimentConfig> cells;
    for (const WorkloadRef &w : allWorkloads()) {
        if (with_baseline)
            cells.push_back(makeConfig(w, PrefetcherKind::None));
        for (ReplayControlMode mode :
             {ReplayControlMode::None, ReplayControlMode::Window,
              ReplayControlMode::WindowPace}) {
            ExperimentConfig cfg = makeConfig(w, PrefetcherKind::Rnr);
            cfg.control = mode;
            cells.push_back(cfg);
        }
    }
    return cells;
}

/** Prints the standard bench banner with the machine description. */
inline void
printHeader(const std::string &figure, const std::string &what)
{
    std::printf("================================================\n");
    std::printf("%s — %s\n", figure.c_str(), what.c_str());
    std::printf("Scaled machine (see DESIGN.md section 4):\n%s\n",
                MachineConfig::scaledDefault().describe().c_str());
    std::printf("Paper machine (Table II) for reference:\n%s\n",
                MachineConfig::paperBaseline().describe().c_str());
    std::printf("================================================\n\n");
}

/** Prints one row of a (workload x prefetcher) metric table. */
inline void
printRow(const std::string &label, const std::vector<double> &values,
         const char *fmt = "%13.2f")
{
    std::printf("%-20s", label.c_str());
    for (double v : values)
        std::printf(fmt, v);
    std::printf("\n");
}

inline void
printColumnHeads(const std::vector<std::string> &heads)
{
    std::printf("%-20s", "workload");
    for (const auto &h : heads)
        std::printf("%13s", h.c_str());
    std::printf("\n");
}

// ---- Bench-regression gate (`micro_hotpath compare`) ----

/**
 * Extracts benchmark-name -> items_per_second from @p doc.  Understands
 * two shapes:
 *  - google-benchmark --benchmark_out: {"benchmarks": [{"name": ...,
 *    "items_per_second": ...}, ...]}.  With --benchmark_repetitions a
 *    row's rate is its "median" aggregate (the entry whose
 *    aggregate_name is "median", filed under its run_name), not
 *    whichever repetition came last; other aggregate entries
 *    ("name_mean", ...) are taken verbatim;
 *  - the committed trajectory file (rnr-hotpath-v1): {"results":
 *    {"<name>": {"after": {"items_per_second": ...}}}} — "after" is the
 *    file's accepted state, which is what a gate compares against.
 */
inline std::map<std::string, double>
loadBenchRates(const JsonValue &doc)
{
    std::map<std::string, double> out;
    if (const JsonValue *benches = doc.find("benchmarks")) {
        std::map<std::string, double> medians;
        for (const JsonValue &b : benches->items) {
            const JsonValue *name = b.find("name");
            const JsonValue *rate = b.find("items_per_second");
            if (!name || !rate || rate->asDouble() <= 0)
                continue;
            out[name->text] = rate->asDouble();
            const JsonValue *agg = b.find("aggregate_name");
            const JsonValue *run = b.find("run_name");
            if (agg && run && agg->text == "median")
                medians[run->text] = rate->asDouble();
        }
        for (const auto &[run, rate] : medians)
            out[run] = rate;
    } else if (const JsonValue *results = doc.find("results")) {
        for (const auto &m : results->members) {
            const JsonValue *after = m.second.find("after");
            const JsonValue *rate =
                after ? after->find("items_per_second") : nullptr;
            if (rate && rate->asDouble() > 0)
                out[m.first] = rate->asDouble();
        }
    }
    return out;
}

/**
 * `compare <baseline.json> <current.json> [--max-regress <pct>]`:
 * exits 0 when every baseline benchmark is in the run and within
 * @c max_regress percent of the baseline rate (default 15), 1 when any
 * regressed beyond it or is absent from the run (a deleted or renamed
 * benchmark must not drop out of the gate unnoticed), 2 on usage/parse
 * errors or no common benchmarks.  Faster-than-baseline results always
 * pass (the gate is one-sided).
 */
inline int
benchCompareMain(int argc, char **argv)
{
    const char *base_path = nullptr;
    const char *cur_path = nullptr;
    double max_regress = 15.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--max-regress" && i + 1 < argc) {
            max_regress = std::strtod(argv[++i], nullptr);
        } else if (arg.rfind("--max-regress=", 0) == 0) {
            max_regress = std::strtod(arg.c_str() + 14, nullptr);
        } else if (!base_path) {
            base_path = argv[i];
        } else if (!cur_path) {
            cur_path = argv[i];
        } else {
            base_path = nullptr;
            break;
        }
    }
    if (!base_path || !cur_path) {
        std::fprintf(stderr,
                     "usage: compare <baseline.json> <current.json> "
                     "[--max-regress <pct>]\n");
        return 2;
    }

    JsonValue base_doc, cur_doc;
    std::string err;
    if (!parseJsonFile(base_path, base_doc, &err)) {
        std::fprintf(stderr, "compare: %s: %s\n", base_path,
                     err.c_str());
        return 2;
    }
    if (!parseJsonFile(cur_path, cur_doc, &err)) {
        std::fprintf(stderr, "compare: %s: %s\n", cur_path, err.c_str());
        return 2;
    }

    const std::map<std::string, double> base = loadBenchRates(base_doc);
    const std::map<std::string, double> cur = loadBenchRates(cur_doc);

    std::size_t common = 0;
    int failures = 0;
    int missing = 0;
    for (const auto &b : base) {
        const auto it = cur.find(b.first);
        if (it == cur.end()) {
            std::fprintf(stderr, "compare: %s: in baseline, absent from the "
                                 "run\n", b.first.c_str());
            ++missing;
            continue;
        }
        ++common;
        const double delta_pct =
            (b.second - it->second) / b.second * 100.0;
        const bool regressed = delta_pct > max_regress;
        std::fprintf(stderr,
                     "compare: %-28s %12.0f -> %12.0f items/s "
                     "(%+.1f%%)%s\n",
                     b.first.c_str(), b.second, it->second, -delta_pct,
                     regressed ? "  REGRESSION" : "");
        if (regressed)
            ++failures;
    }
    if (common == 0) {
        std::fprintf(stderr,
                     "compare: no common benchmarks between %s and %s\n",
                     base_path, cur_path);
        return 2;
    }
    if (failures)
        std::fprintf(stderr,
                     "compare: %d of %zu benchmarks regressed more "
                     "than %.1f%%\n",
                     failures, common, max_regress);
    if (missing)
        std::fprintf(stderr,
                     "compare: %d baseline benchmarks absent from the run\n",
                     missing);
    if (failures || missing)
        return 1;
    std::fprintf(stderr,
                 "compare: all %zu benchmarks within %.1f%% of "
                 "baseline\n",
                 common, max_regress);
    return 0;
}

} // namespace rnr::bench

#endif // RNR_BENCH_BENCH_UTIL_H
