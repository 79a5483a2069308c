#include "harness/runner.h"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>

#include "ckpt/input_fork.h"
#include "cpu/system.h"
#include "harness/result_cache.h"
#include "harness/system_counters.h"
#include "sim/attrib.h"
#include "sim/timeseries.h"
#include "tracestore/trace_reader.h"
#include "tracestore/trace_segment.h"
#include "tracestore/trace_store.h"
#include "workloads/graph_gen.h"
#include "workloads/hyperanf.h"
#include "workloads/jacobi.h"
#include "workloads/labelprop.h"
#include "workloads/pagerank.h"
#include "workloads/sparse_gen.h"
#include "workloads/spcg.h"
#include "workloads/trace_replay.h"

namespace rnr {

namespace {

// ---- Single-flight bookkeeping for concurrent runExperiment calls ----

std::atomic<std::uint64_t> g_simulated{0};
std::mutex g_inflight_mu;
std::condition_variable g_inflight_cv;
std::set<std::string> g_inflight;

/** Thrown when trace bytes fail to write, open or decode.  A store
 *  replay quarantines the entry and recaptures; a capture is aborted
 *  and the cell reruns store-off; a tracefile cell lets it propagate,
 *  because the file is the user's. */
struct TraceStreamError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/**
 * Machine + workload + prefetchers for one experiment, shared by every
 * path (capture, replay, store-off, tracefile), all of which simulate
 * through runStreamed().
 */
struct Sim {
    System sys;
    std::unique_ptr<Workload> wl;
    std::vector<std::unique_ptr<Prefetcher>> prefetchers;
    ExperimentResult result;
    SystemCounters before;

    Sim(const ExperimentConfig &cfg, const Probes &probes)
        : sys(machineFor(cfg)), wl(makeWorkload(cfg))
    {
        RnrPrefetcher::Options rnr_opts;
        rnr_opts.control = cfg.control;
        rnr_opts.window_size = cfg.window_size;

        for (unsigned c = 0; c < cfg.cores; ++c) {
            prefetchers.push_back(
                createPrefetcher(cfg.prefetcher, rnr_opts));
            prefetchers.back()->configureFor(*wl, c);
            sys.mem().setPrefetcher(c, prefetchers.back().get());
        }
        if (probes.trace)
            sys.attachTrace(probes.trace);
        if (probes.telemetry)
            sys.attachTelemetry(probes.telemetry);
        if (probes.attrib)
            sys.attachAttrib(probes.attrib);

        result.config = cfg;
        result.input_bytes = wl->inputBytes();
        result.target_bytes = wl->targetBytes();
        before = SystemCounters::capture(sys);
    }

    static MachineConfig
    machineFor(const ExperimentConfig &cfg)
    {
        MachineConfig mcfg = MachineConfig::scaledDefault();
        mcfg.cores = cfg.cores;
        if (cfg.ideal_llc)
            mcfg = MachineConfig::withInfiniteLlc(mcfg);
        return mcfg;
    }

    /** Books one simulated iteration into the result. */
    void
    recordIteration(const IterationResult &run)
    {
        SystemCounters after = SystemCounters::capture(sys);
        IterStats it = after.delta(before);
        it.cycles = run.cycles();
        it.instructions = run.instructions;
        result.iterations.push_back(it);
        before = after;
    }

    /** Collects the end-of-run metadata sizes (Fig 13). */
    ExperimentResult
    finish(const ExperimentConfig &cfg)
    {
        for (unsigned c = 0; c < cfg.cores; ++c)
            if (RnrPrefetcher *r = asRnr(sys.mem().prefetcher(c))) {
                result.seq_table_bytes += r->seqTableBytes();
                result.div_table_bytes += r->divTableBytes();
            }
        return std::move(result);
    }
};

/**
 * Simulates every iteration from per-core streams, one decoded block
 * resident per core.  @p open(workload, iter) returns the iteration's
 * per-core sources; each must expose error()/errorResult() for a block
 * that failed mid-stream, which throws TraceStreamError.
 */
template <typename Open>
ExperimentResult
runStreamed(const ExperimentConfig &cfg, const Probes &probes, Open open)
{
    g_simulated.fetch_add(1);
    Sim sim(cfg, probes);

    for (unsigned iter = 0; iter < cfg.iterations; ++iter) {
        auto streams = open(*sim.wl, iter);
        std::vector<TraceSource *> sources;
        sources.reserve(streams.size());
        for (auto &s : streams)
            sources.push_back(&s);
        const IterationResult run = sim.sys.runStreaming(sources);
        for (const auto &s : streams)
            if (s.error())
                throw TraceStreamError(s.errorResult().message());
        sim.recordIteration(run);
    }
    return sim.finish(cfg);
}

/** Simulates from a validated store entry.  The workload is still
 *  constructed (prefetcher hints read its structures), but its
 *  expensive emitIteration() never runs. */
ExperimentResult
runFromStore(const ExperimentConfig &cfg, const Probes &probes,
             const TraceStore::Entry &entry)
{
    return runStreamed(cfg, probes, [&](Workload &wl, unsigned iter) {
        // Advance workload-held replay state (e.g. PageRank's p_curr
        // base swap) that emitIteration() would have performed.
        wl.beginReplayIteration(iter);
        std::vector<StreamingTraceReader> readers(cfg.cores);
        for (unsigned c = 0; c < cfg.cores; ++c) {
            const std::string path = entry.tracePath(iter, c);
            if (TraceIoResult r = readers[c].open(path); !r)
                throw TraceStreamError(path + ": " + r.message());
        }
        return readers;
    });
}

/** Emits iteration @p iter of @p wl into one sink per core. */
template <typename Sink>
void
emitInto(Workload &wl, const ExperimentConfig &cfg, unsigned iter,
         std::vector<Sink> &sinks)
{
    std::vector<TraceSink *> ptrs;
    for (Sink &s : sinks)
        ptrs.push_back(&s);
    wl.emitIteration(iter, iter + 1 == cfg.iterations, ptrs);
}

/**
 * Executes a native workload, encoding every iteration into the
 * capture's files as it is emitted, then simulating it from those files
 * exactly as runFromStore() will replay them.  A write that fails
 * throws TraceStreamError.
 */
ExperimentResult
runCapture(const ExperimentConfig &cfg, const Probes &probes,
           TraceStore::Capture &cap)
{
    return runStreamed(cfg, probes, [&](Workload &wl, unsigned iter) {
        std::vector<TraceFileWriter> writers(cfg.cores);
        for (unsigned c = 0; c < cfg.cores; ++c)
            if (TraceIoResult r = cap.open(iter, c, writers[c]); !r)
                throw TraceStreamError("capture: " + r.message());
        emitInto(wl, cfg, iter, writers);
        std::vector<StreamingTraceReader> readers(cfg.cores);
        for (unsigned c = 0; c < cfg.cores; ++c) {
            if (TraceIoResult r = cap.close(writers[c]); !r)
                throw TraceStreamError("capture: " + r.message());
            const std::string path = cap.tracePath(iter, c);
            if (TraceIoResult r = readers[c].open(path); !r)
                throw TraceStreamError(path + ": " + r.message());
        }
        return readers;
    });
}

/** Executes a native workload without the store: every iteration is
 *  encoded into one in-memory segment per core, then simulated from
 *  the segments. */
ExperimentResult
runStoreOff(const ExperimentConfig &cfg, const Probes &probes)
{
    return runStreamed(cfg, probes, [&](Workload &wl, unsigned iter) {
        std::vector<SegmentSink> segments(cfg.cores);
        emitInto(wl, cfg, iter, segments);
        std::vector<SegmentSource> sources;
        sources.reserve(cfg.cores);
        for (SegmentSink &seg : segments)
            sources.emplace_back(seg.release());
        return sources;
    });
}

/** Replays the tracefile app's per-core files, streamed every
 *  iteration with its RnR control records around them. */
ExperimentResult
runTraceFile(const ExperimentConfig &cfg, const Probes &probes)
{
    return runStreamed(cfg, probes, [&](Workload &wl, unsigned iter) {
        return dynamic_cast<TraceFileWorkload &>(wl).openIteration(
            iter, iter + 1 == cfg.iterations);
    });
}

/**
 * Trace-store front door: replay when the corpus has this workload,
 * capture-and-publish when it does not.  A corrupt entry is
 * quarantined and recaptured once before giving up on the store.
 */
ExperimentResult
runWithTraceStore(const ExperimentConfig &cfg, const Probes &probes)
{
    TraceStore &store = TraceStore::instance();
    const std::string wkey = cfg.workloadKey();

    for (int attempt = 0; attempt < 2; ++attempt) {
        TraceStore::Entry entry;
        if (store.acquire(wkey, entry) == TraceStore::Acquire::Hit) {
            try {
                return runFromStore(cfg, probes, entry);
            } catch (const TraceStreamError &e) {
                std::fprintf(stderr,
                             "rnr: warning: tracestore: replay failed; "
                             "quarantining and recapturing %s: %s\n",
                             wkey.c_str(), e.what());
                store.invalidate(wkey);
                continue;
            }
        }
        // Owner: run natively, encoding each iteration as it is emitted.
        TraceStore::Capture cap =
            store.beginCapture(wkey, cfg.iterations, cfg.cores);
        try {
            ExperimentResult r = runCapture(cfg, probes, cap);
            cap.publish(r.input_bytes, r.target_bytes);
            return r;
        } catch (const TraceStreamError &e) {
            // Capture is best-effort: drop the half-written entry (the
            // Capture's destructor aborts it) and rerun without it.
            std::fprintf(stderr,
                         "rnr: warning: tracestore: capture failed; "
                         "simulating without the store %s: %s\n",
                         wkey.c_str(), e.what());
            break;
        }
    }
    // A failed capture, or two corrupt replays in a row: something is
    // systematically wrong with this entry's environment; simulate
    // without the store.
    return runStoreOff(cfg, probes);
}

} // namespace

std::unique_ptr<Workload>
makeWorkload(const ExperimentConfig &cfg)
{
    WorkloadOptions opts;
    opts.cores = cfg.cores;
    opts.use_rnr = true; // control records are harmless to baselines
    opts.window_size = cfg.window_size;

    // Inputs come through the checkpoint-fork layer: the first config
    // of a workload key generates (the sweep's shared warm-up), every
    // other one forks the published input snapshot (RNR_CKPT=0 falls
    // back to generating every time).  Forked inputs are bit-identical
    // to generated ones, so results do not depend on the store.
    if (cfg.app == "pagerank")
        return std::make_unique<PageRankWorkload>(
            ckpt::forkGraphInput(cfg), opts);
    if (cfg.app == "hyperanf")
        return std::make_unique<HyperAnfWorkload>(
            ckpt::forkGraphInput(cfg), opts);
    if (cfg.app == "spcg")
        return std::make_unique<SpcgWorkload>(
            ckpt::forkMatrixInput(cfg), opts);
    if (cfg.app == "labelprop")
        return std::make_unique<LabelPropWorkload>(
            ckpt::forkGraphInput(cfg), opts);
    if (cfg.app == "jacobi")
        return std::make_unique<JacobiWorkload>(
            ckpt::forkMatrixInput(cfg), opts);
    if (cfg.app == "tracefile")
        return std::make_unique<TraceFileWorkload>(cfg.input, opts);
    throw std::invalid_argument("unknown app: " + cfg.app);
}

ExperimentResult
runExperimentUncached(const ExperimentConfig &cfg, const Probes &given)
{
    // A probe the caller passed rides along as given; a missing one is
    // built here when cfg or the environment asks for it.
    Probes probes = given;
    std::unique_ptr<TraceCollector> own_tr;
    if (!probes.trace && (cfg.trace.enabled || traceEnvEnabled())) {
        own_tr = std::make_unique<TraceCollector>(cfg.cores,
                                                  cfg.trace.ring_capacity);
        probes.trace = own_tr.get();
    }
    std::unique_ptr<TelemetrySampler> own_tm;
    if (!probes.telemetry &&
        (cfg.telemetry.enabled || telemetryEnvSampleCycles() > 0)) {
        own_tm = std::make_unique<TelemetrySampler>(
            telemetrySampleCycles(cfg.telemetry.sample_cycles));
        probes.telemetry = own_tm.get();
    }
    std::unique_ptr<AttribCollector> own_at;
    if (!probes.attrib && (cfg.attrib.enabled || attribEnvEnabled())) {
        own_at = std::make_unique<AttribCollector>(
            cfg.attrib.site_top_k != 0
                ? cfg.attrib.site_top_k
                : AttribCollector::kDefaultSiteTopK,
            cfg.attrib.region_top_k != 0
                ? cfg.attrib.region_top_k
                : AttribCollector::kDefaultRegionTopK);
        probes.attrib = own_at.get();
    }

    // The tracefile app already replays from disk; storing it again
    // would only duplicate the file.
    ExperimentResult r = cfg.app == "tracefile" ? runTraceFile(cfg, probes)
                         : TraceStore::enabled()
                             ? runWithTraceStore(cfg, probes)
                             : runStoreOff(cfg, probes);
    if (probes.telemetry)
        r.telemetry =
            std::make_shared<TelemetryBlob>(probes.telemetry->harvest());
    if (probes.attrib)
        r.attrib = std::make_shared<AttribBlob>(probes.attrib->harvest());
    if (!own_tr)
        return r;

    // Sinks, for a collector built here only: a caller-owned one is the
    // caller's to read.  Caveat for parallel sweeps: every traced cell
    // writes the same RNR_TRACE_OUT path (atomically; last writer wins)
    // — tracing is meant for single-cell runs, not whole sweeps.
    const std::string out = !cfg.trace.json_out.empty()
                                ? cfg.trace.json_out
                                : traceEnvOutPath();
    if (!out.empty() && !writeChromeTrace(out, *own_tr))
        std::fprintf(stderr, "rnr: error: trace: failed to write trace %s\n",
                     out.c_str());
    if (traceEnvReportEnabled()) {
        const std::string report =
            formatReplayDiagnostics(buildReplayDiagnostics(*own_tr));
        std::fprintf(stderr, "[%s] replay windows:\n%s", cfg.key().c_str(),
                     report.c_str());
    }
    return r;
}

ExperimentResult
runExperiment(const ExperimentConfig &cfg, bool *was_cached)
{
    ResultCache &cache = ResultCache::instance();
    const std::string key = cfg.key();

    // Single-flight: the first caller of a key simulates; concurrent
    // callers of the same key sleep until the result lands in the cache
    // (or the simulating thread fails, in which case one waiter takes
    // over and retries).
    {
        std::unique_lock<std::mutex> lock(g_inflight_mu);
        for (;;) {
            ExperimentResult hit;
            if (cache.lookup(cfg, hit)) {
                if (was_cached)
                    *was_cached = true;
                return hit;
            }
            if (g_inflight.insert(key).second)
                break; // we own the simulation of this key
            g_inflight_cv.wait(lock);
        }
    }

    ExperimentResult r;
    try {
        r = runExperimentUncached(cfg);
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(g_inflight_mu);
            g_inflight.erase(key);
        }
        g_inflight_cv.notify_all();
        throw;
    }
    cache.store(key, r);
    {
        std::lock_guard<std::mutex> lock(g_inflight_mu);
        g_inflight.erase(key);
    }
    g_inflight_cv.notify_all();
    if (was_cached)
        *was_cached = false;
    return r;
}

std::uint64_t
experimentsSimulated()
{
    return g_simulated.load();
}

ExperimentResult
runBaseline(const ExperimentConfig &cfg)
{
    ExperimentConfig base = cfg;
    base.prefetcher = PrefetcherKind::None;
    base.control = ReplayControlMode::WindowPace;
    base.window_size = 0;
    base.ideal_llc = false;
    return runExperiment(base);
}

} // namespace rnr
