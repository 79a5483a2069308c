/**
 * @file
 * The perfbench binary: runs benchmark cells through the simulator's
 * public harness and prints one JSON line per cell on stdout.
 * perfbench/run.py starts it once per cell, so every cell is a fresh
 * process.
 *
 *   perfbench run <cell>...     runExperiment() one cell at a time
 *   perfbench inputs <cell>...  publish each cell's input snapshot to the
 *                               ckpt store (run one process per cell:
 *                               a process publishes an input only once)
 *   perfbench warm <cell>...    capture each cell's workload into the
 *                               trace store (and publish its input
 *                               snapshot) without simulating it
 *   perfbench gen <app> <shape> <graph-seed> <prefix>
 *                               regenerate a Table III-shaped graph with
 *                               another seed and write its first
 *                               iteration as per-core trace files
 *                               <prefix>.c<K>.rnrt for the tracefile app
 *   perfbench traced <cell>...  the per-layer pipeline (traced.cc)
 *
 * Stores, caches and every other knob come from the RNR_* environment,
 * which run.py sets explicitly.
 */
#include "perfbench.h"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "harness/runner.h"
#include "tracestore/trace_codec.h"
#include "tracestore/trace_store.h"
#include "workloads/graph_gen.h"
#include "workloads/hyperanf.h"
#include "workloads/pagerank.h"

namespace perfbench {

rnr::ExperimentConfig
parseCell(const std::string &spec)
{
    std::vector<std::string> parts;
    std::stringstream in(spec);
    for (std::string part; std::getline(in, part, ':');)
        parts.push_back(part);
    if (parts.size() != 5)
        throw std::invalid_argument("cell \"" + spec +
                                    "\" is not app:input:pf:control:ideal");
    rnr::ExperimentConfig cfg;
    cfg.app = parts[0];
    cfg.input = parts[1];
    cfg.prefetcher = rnr::prefetcherKindFromString(parts[2]);
    if (!rnr::replayControlFromName(parts[3], cfg.control))
        throw std::invalid_argument("unknown control mode: " + parts[3]);
    cfg.ideal_llc = parts[4] == "1";
    return cfg;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
}

std::string
countersJson(const rnr::ExperimentResult &r)
{
    std::string s = "{";
#define PERFBENCH_FIELD(type, name)                                         \
    s += quote(#name) + ":[";                                               \
    for (std::size_t i = 0; i < r.iterations.size(); ++i)                   \
        s += (i ? "," : "") + std::to_string(r.iterations[i].name);         \
    s += "],";
    RNR_ITER_STAT_FIELDS(PERFBENCH_FIELD)
#undef PERFBENCH_FIELD
    s += "\"seq_table_bytes\":" + std::to_string(r.seq_table_bytes) +
         ",\"div_table_bytes\":" + std::to_string(r.div_table_bytes) + "}";
    return s;
}

double
now()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch()).count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double
peakRssMib()
{
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    return 0;
}

} // namespace perfbench

namespace {

using namespace perfbench;

int
runMain(const std::vector<std::string> &cells)
{
    int failed = 0;
    for (const std::string &spec : cells) {
        try {
            const rnr::ExperimentConfig cfg = parseCell(spec);
            const double t0 = now(), c0 = cpuNow();
            const rnr::ExperimentResult r = rnr::runExperiment(cfg);
            const double host_s = now() - t0, cpu_s = cpuNow() - c0;
            std::printf("{\"cell\":%s,\"host_s\":%.6f,\"cpu_s\":%.6f,"
                        "\"stats\":%s}\n",
                        quote(spec).c_str(), host_s, cpu_s,
                        countersJson(r).c_str());
        } catch (const std::exception &e) {
            ++failed;
            std::printf("{\"cell\":%s,\"error\":%s}\n", quote(spec).c_str(),
                        quote(e.what()).c_str());
        }
        std::fflush(stdout);
    }
    std::printf("{\"peak_rss_mib\":%.3f}\n", peakRssMib());
    return failed ? 1 : 0;
}

int
inputsMain(const std::vector<std::string> &cells)
{
    // makeWorkload() forks the input, generating and publishing it on
    // a store miss.
    for (const std::string &spec : cells)
        rnr::makeWorkload(parseCell(spec));
    return 0;
}

int
warmMain(const std::vector<std::string> &cells)
{
    rnr::TraceStore &store = rnr::TraceStore::instance();
    for (const std::string &spec : cells) {
        const rnr::ExperimentConfig cfg = parseCell(spec);
        const std::string wkey = cfg.workloadKey();
        rnr::TraceStore::Entry entry;
        if (store.acquire(wkey, entry) == rnr::TraceStore::Acquire::Hit)
            continue;
        // The runner's capture path, without the simulation.
        std::unique_ptr<rnr::Workload> wl = rnr::makeWorkload(cfg);
        rnr::TraceStore::Capture cap =
            store.beginCapture(wkey, cfg.iterations, cfg.cores);
        std::vector<rnr::TraceBuffer> bufs(cfg.cores);
        for (unsigned iter = 0; iter < cfg.iterations; ++iter) {
            wl->emitIteration(iter, iter + 1 == cfg.iterations, bufs);
            for (unsigned c = 0; c < cfg.cores; ++c)
                if (rnr::TraceIoResult r = cap.add(iter, c, bufs[c]); !r)
                    throw std::runtime_error(wkey + ": " + r.message());
        }
        if (!cap.publish(wl->inputBytes(), wl->targetBytes()))
            throw std::runtime_error(wkey + ": publish failed");
    }
    return 0;
}

int
genMain(const std::vector<std::string> &args)
{
    if (args.size() != 4)
        throw std::invalid_argument(
            "usage: perfbench gen <app> <shape> <graph-seed> <prefix>");
    const std::string &app = args[0];
    const std::string &shape = args[1];
    const std::uint64_t seed = std::stoull(args[2]);
    const std::string &prefix = args[3];

    // The Table III generator parameters (workloads/graph_gen.cc), with
    // the seed replaced.
    rnr::Graph g;
    if (shape == "urand")
        g = rnr::makeUrandGraph(1u << 16, 16, seed);
    else if (shape == "amazon")
        g = rnr::makeCommunityGraph(1u << 16, 6, 64, 0.75, seed);
    else if (shape == "com-orkut")
        g = rnr::makeCommunityGraph(1u << 16, 24, 256, 0.55, seed);
    else
        throw std::invalid_argument("unknown graph shape: " + shape);

    rnr::WorkloadOptions opts;
    opts.cores = rnr::ExperimentConfig{}.cores;
    opts.use_rnr = false; // the tracefile app injects the RnR calls
    std::unique_ptr<rnr::Workload> wl;
    if (app == "pagerank")
        wl = std::make_unique<rnr::PageRankWorkload>(std::move(g), opts);
    else if (app == "hyperanf")
        wl = std::make_unique<rnr::HyperAnfWorkload>(g, opts);
    else
        throw std::invalid_argument("unknown graph app: " + app);

    std::vector<rnr::TraceBuffer> bufs(opts.cores);
    wl->emitIteration(0, false, bufs);
    for (unsigned c = 0; c < opts.cores; ++c) {
        const std::string path = prefix + ".c" + std::to_string(c) + ".rnrt";
        if (rnr::TraceIoResult r = rnr::writeTraceFileV2(path, bufs[c]); !r)
            throw std::runtime_error(path + ": " + r.message());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: perfbench run|inputs|warm|traced <cell>... | "
                     "gen <app> <shape> <graph-seed> <prefix>\n");
        return 2;
    }
    const std::string cmd = argv[1];
    const std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (cmd == "run")
            return runMain(args);
        if (cmd == "inputs")
            return inputsMain(args);
        if (cmd == "warm")
            return warmMain(args);
        if (cmd == "gen")
            return genMain(args);
        if (cmd == "traced")
            return tracedMain(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(), e.what());
        return 1;
    }
    std::fprintf(stderr, "perfbench: unknown command %s\n", cmd.c_str());
    return 2;
}
