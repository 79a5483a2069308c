#include "harness/runner.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "ckpt/input_fork.h"
#include "cpu/system.h"
#include "harness/explain.h"
#include "harness/json_write.h"
#include "harness/result_cache.h"
#include "harness/system_counters.h"
#include "sim/attrib.h"
#include "sim/timeseries.h"
#include "sim/trace_event.h"
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

std::atomic<std::uint64_t> g_simulated{0};

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
    Probes probes;
    std::unique_ptr<Workload> wl;
    std::vector<std::unique_ptr<Prefetcher>> prefetchers;
    ExperimentResult result;
    SystemCounters before;

    Sim(const ExperimentConfig &cfg, const Probes &p)
        : sys(machineFor(cfg)), probes(p), wl(makeWorkload(cfg))
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
        // Every attempt starts its probes empty, so a capture that
        // failed part way or a corrupt replay leaves nothing in them.
        probes.reset();
        sys.attach(probes);

        result.config = cfg;
        result.input_bytes = wl->inputBytes();
        result.target_bytes = wl->targetBytes();
        before = SystemCounters::capture(sys);
    }

    Sim(const Sim &) = delete;
    Sim &operator=(const Sim &) = delete;

    /** The sampler is the one probe holding pointers into the machine
     *  (its series closures); it lets go before the machine dies. */
    ~Sim()
    {
        if (probes.telemetry)
            probes.telemetry->detach();
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

/** Writes one RNR_OBS output file; a failure is reported, not thrown:
 *  the simulation it observed still stands. */
void
writeObsFile(const std::string &path, const std::string &content)
{
    if (!writeFileAtomic(path, content))
        std::fprintf(stderr, "rnr: error: obs: failed to write %s\n",
                     path.c_str());
}

} // namespace

std::unique_ptr<Workload>
makeWorkload(const ExperimentConfig &cfg)
{
    WorkloadOptions opts;
    opts.cores = cfg.cores;
    opts.use_rnr = true; // control records are harmless to baselines
    opts.window_size = cfg.window_size;

    // Inputs come through the memo: within a sweep, the first cell on
    // an input builds it and the others copy it (ckpt/input_fork.h).
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

ObsSwitch
obsSwitch()
{
    ObsSwitch obs;
    if (const char *out = std::getenv("RNR_OBS_OUT"); out && *out)
        obs.out = out;
    const char *list = std::getenv("RNR_OBS");
    if (!list)
        return obs;

    // A sweep parses once per cell; warn once per value, not per cell.
    static std::mutex mu;
    static std::set<std::string> warned;
    std::string unknown;
    std::istringstream in(list);
    for (std::string tok; std::getline(in, tok, ',');) {
        if (tok == "trace")
            obs.trace = true;
        else if (tok == "telemetry")
            obs.telemetry = true;
        else if (tok == "attrib")
            obs.attrib = true;
        else if (!tok.empty())
            unknown += (unknown.empty() ? "" : ",") + tok;
    }
    if (unknown.empty())
        return obs;
    std::lock_guard<std::mutex> lock(mu);
    if (warned.insert(list).second)
        std::fprintf(stderr,
                     "rnr: warning: RNR_OBS: ignoring unknown %s (known: "
                     "trace, telemetry, attrib)\n",
                     unknown.c_str());
    return obs;
}

ExperimentResult
runExperimentUncached(const ExperimentConfig &cfg, const Probes &given)
{
    // A probe the caller passed rides along as given; a missing one is
    // built here when RNR_OBS names it.
    const ObsSwitch obs = obsSwitch();
    Probes probes = given;
    std::unique_ptr<TraceCollector> own_tr;
    if (!probes.trace && obs.trace) {
        own_tr = std::make_unique<TraceCollector>(cfg.cores);
        probes.trace = own_tr.get();
    }
    std::unique_ptr<TelemetrySampler> own_tm;
    if (!probes.telemetry && obs.telemetry) {
        own_tm = std::make_unique<TelemetrySampler>();
        probes.telemetry = own_tm.get();
    }
    std::unique_ptr<AttribCollector> own_at;
    if (!probes.attrib && obs.attrib) {
        own_at = std::make_unique<AttribCollector>();
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

    // Output, only when this call built a probe: a run whose probes are
    // all the caller's is the caller's to read.
    if (own_tr)
        writeObsFile(obs.out + ".trace.json", chromeTraceJson(*own_tr));
    if (own_tr || own_tm || own_at)
        writeObsFile(obs.out + ".explain.json",
                     explainJson(r, nullptr, probes.trace));
    return r;
}

ExperimentResult
runExperiment(const ExperimentConfig &cfg, bool *was_cached)
{
    // Single-flight: the first caller of a key simulates; concurrent
    // callers of the same key wait until the result lands in the cache
    // (or the simulating thread fails, in which case one waiter takes
    // over and retries).
    ResultCache &cache = ResultCache::instance();
    ExperimentResult r;
    const bool hit = cache.acquire(cfg, r) == BlobStore::Acquire::Hit;
    if (was_cached)
        *was_cached = hit;
    if (hit)
        return r;
    const std::string key = cfg.key();
    try {
        r = runExperimentUncached(cfg);
    } catch (...) {
        cache.abandon(key);
        throw;
    }
    cache.store(key, r);
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
