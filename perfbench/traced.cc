/**
 * @file
 * The traced pipeline: `perfbench traced [--spans <path>] <cell>...`.
 *
 * It simulates each cell the way harness/runner.cc does, but assembles
 * the run from the layers' public calls so that every call into a layer
 * can be timed from here, without touching the simulator:
 *
 *   ckpt        forkGraphInput / forkMatrixInput
 *   workloads   the workload constructors and emitIteration
 *   tracestore  TraceStore acquire / beginCapture / Capture::add /
 *               publish, StreamingTraceReader behind a timing TraceSource
 *               (and the tracefile app's file reads, which are decodes)
 *   cpu + mem   System::run / runStreaming, minus the nested layers
 *   prefetch    baseline prefetchers behind a timing Prefetcher
 *   core        RnR behind the same wrapper
 *
 * Coarse spans (name, cell, start, end, parent) are kept in memory and
 * written once at the end.  Per-access hooks are too many to keep as
 * spans, so the wrappers add their durations and call counts to
 * per-layer totals instead.
 *
 * Output: one JSON line per cell in the same shape as `perfbench run`
 * (so its counters are checked against the same reference), then one
 * {"layers": ...} line with the per-layer self times and counts.
 *
 * The wrapper hides RnR from SystemCounters::capture (it finds RnR with
 * asRnr(), which cannot see through the wrapper), so the rnr_* fields
 * and the table bytes are read from the wrapped prefetcher here.
 */
#include "perfbench.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "ckpt/ckpt_store.h"
#include "ckpt/input_fork.h"
#include "cpu/system.h"
#include "harness/system_counters.h"
#include "prefetch/factory.h"
#include "tracestore/trace_reader.h"
#include "tracestore/trace_store.h"
#include "workloads/hyperanf.h"
#include "workloads/pagerank.h"
#include "workloads/spcg.h"
#include "workloads/trace_replay.h"

namespace perfbench {

namespace {

/** Host-time totals and counts per layer, summed over all cells. */
struct Totals {
    double input_s = 0;   ///< ckpt: input fork or generate.
    double build_s = 0;   ///< workloads: constructors.
    double emit_s = 0;    ///< workloads: emitIteration.
    double encode_s = 0;  ///< tracestore: Capture::add.
    double publish_s = 0; ///< tracestore: Capture::publish.
    double decode_s = 0;  ///< tracestore: opens, trace-file reads.
    double stream_s = 0;  ///< tracestore: reader blocks, inside sim_s.
    double sim_s = 0;     ///< System::run / runStreaming, inclusive.
    double wall_s = 0;    ///< Every cell, start to finish.
    std::map<std::string, double> hook_s; ///< By prefetcher name.
    std::uint64_t hook_calls = 0;
    std::uint64_t records_emitted = 0;
    std::uint64_t records_simulated = 0;
};

Totals g_totals;

struct Span {
    std::string name;
    int cell;
    double start;
    double end;
    int parent; ///< Index into g_spans, -1 for a cell's root.
};

std::vector<Span> g_spans;

/** Opens a span and closes it when the scope ends; adds the duration
 *  to @p total when one is given. */
class SpanScope
{
  public:
    SpanScope(const char *name, int cell, int parent, double *total = nullptr)
        : index_(static_cast<int>(g_spans.size())), total_(total)
    {
        g_spans.push_back({name, cell, now(), 0, parent});
    }
    ~SpanScope()
    {
        Span &s = g_spans[static_cast<std::size_t>(index_)];
        s.end = now();
        if (total_)
            *total_ += s.end - s.start;
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int index() const { return index_; }

  private:
    int index_;
    double *total_;
};

/** Times every hook call of the prefetcher it wraps. */
class TimedPrefetcher final : public rnr::Prefetcher
{
  public:
    TimedPrefetcher(std::unique_ptr<rnr::Prefetcher> inner, double *total)
        : inner_(std::move(inner)), total_(total)
    {
    }

    rnr::Prefetcher *inner() { return inner_.get(); }

    void
    attach(rnr::MemorySystem *ms, unsigned core) override
    {
        Prefetcher::attach(ms, core);
        inner_->attach(ms, core);
    }
    void
    configureFor(const rnr::Workload &wl, unsigned core) override
    {
        inner_->configureFor(wl, core);
    }
    void
    onAccess(const rnr::L2AccessInfo &info) override
    {
        const double t = now();
        inner_->onAccess(info);
        charge(t);
    }
    void
    onEvict(rnr::Addr block) override
    {
        const double t = now();
        inner_->onEvict(block);
        charge(t);
    }
    void
    onControl(const rnr::TraceRecord &rec, rnr::Tick when) override
    {
        const double t = now();
        inner_->onControl(rec, when);
        charge(t);
    }
    bool
    inTargetRegion(rnr::Addr vaddr) const override
    {
        return inner_->inTargetRegion(vaddr);
    }
    bool wantsAccess() const override { return inner_->wantsAccess(); }
    bool
    hasTargetRegions() const override
    {
        return inner_->hasTargetRegions();
    }
    std::string name() const override { return inner_->name(); }
    void
    setTrace(rnr::TraceCollector *tr, std::uint16_t track) override
    {
        inner_->setTrace(tr, track);
    }
    void
    setTelemetry(rnr::TelemetrySampler *tm, unsigned core) override
    {
        inner_->setTelemetry(tm, core);
    }
    void
    setAttrib(rnr::AttribCollector *at) override
    {
        inner_->setAttrib(at);
    }

  private:
    void
    charge(double start)
    {
        *total_ += now() - start;
        ++g_totals.hook_calls;
    }

    std::unique_ptr<rnr::Prefetcher> inner_;
    double *total_;
};

/** Times the block decodes of the stored-trace reader it forwards to. */
class TimedSource final : public rnr::TraceSource
{
  public:
    explicit TimedSource(rnr::StreamingTraceReader &in) : in_(in) {}

    bool
    done() override
    {
        const double t = now();
        const bool d = in_.done();
        g_totals.stream_s += now() - t;
        return d;
    }
    rnr::TraceRecord
    take() override
    {
        ++g_totals.records_simulated;
        return in_.take();
    }
    const rnr::TraceRecord *
    takeBlock(std::size_t &n) override
    {
        const double t = now();
        const rnr::TraceRecord *run = in_.takeBlock(n);
        g_totals.stream_s += now() - t;
        g_totals.records_simulated += n;
        return run;
    }

  private:
    rnr::StreamingTraceReader &in_;
};

/** One cell's machine, workload and (wrapped) prefetchers. */
struct Cell {
    rnr::ExperimentConfig cfg;
    int index = 0;
    std::unique_ptr<rnr::Workload> wl;
    std::unique_ptr<rnr::System> sys;
    std::vector<std::unique_ptr<rnr::Prefetcher>> prefetchers;
    rnr::ExperimentResult result;
    rnr::SystemCounters before;

    /** The RnR half of core @p c's prefetcher, through the wrapper. */
    rnr::RnrPrefetcher *
    rnrOf(unsigned c)
    {
        rnr::Prefetcher *p = prefetchers[c].get();
        if (auto *t = dynamic_cast<TimedPrefetcher *>(p))
            p = t->inner();
        return rnr::asRnr(p);
    }

    rnr::SystemCounters
    capture()
    {
        rnr::SystemCounters s = rnr::SystemCounters::capture(*sys);
        for (unsigned c = 0; c < cfg.cores; ++c) {
            // Unwrapped RnR is already counted by capture().
            if (!dynamic_cast<TimedPrefetcher *>(prefetchers[c].get()))
                continue;
            if (const rnr::RnrPrefetcher *r = rnrOf(c)) {
                const rnr::RnrPrefetcher::Counters &rc = r->ctr();
                s.rnr_ontime += rc.pf_ontime.value();
                s.rnr_early += rc.pf_early.value();
                s.rnr_late += rc.pf_late.value();
                s.rnr_out_of_window += rc.pf_out_of_window.value();
                s.rnr_recorded += rc.recorded_misses.value();
            }
        }
        return s;
    }

    void
    record(const rnr::IterationResult &run)
    {
        const rnr::SystemCounters after = capture();
        rnr::IterStats it = after.delta(before);
        it.cycles = run.cycles();
        it.instructions = run.instructions;
        result.iterations.push_back(it);
        before = after;
    }
};

/** Input fork plus workload constructor, each timed as its layer. */
std::unique_ptr<rnr::Workload>
buildWorkload(const rnr::ExperimentConfig &cfg, int cell, int parent)
{
    rnr::WorkloadOptions opts;
    opts.cores = cfg.cores;
    opts.use_rnr = true;
    opts.window_size = cfg.window_size;

    const bool graph = cfg.app == "pagerank" || cfg.app == "hyperanf";
    if (graph || cfg.app == "spcg") {
        rnr::Graph g;
        rnr::SparseMatrix m;
        {
            SpanScope s("ckpt.input", cell, parent, &g_totals.input_s);
            if (graph)
                g = rnr::ckpt::forkGraphInput(cfg);
            else
                m = rnr::ckpt::forkMatrixInput(cfg);
        }
        SpanScope s("workloads.build", cell, parent, &g_totals.build_s);
        if (cfg.app == "pagerank")
            return std::make_unique<rnr::PageRankWorkload>(std::move(g),
                                                           opts);
        if (cfg.app == "hyperanf")
            return std::make_unique<rnr::HyperAnfWorkload>(g, opts);
        return std::make_unique<rnr::SpcgWorkload>(std::move(m), opts);
    }
    if (cfg.app == "tracefile") {
        SpanScope s("workloads.build", cell, parent, &g_totals.build_s);
        return std::make_unique<rnr::TraceFileWorkload>(cfg.input, opts);
    }
    throw std::invalid_argument("traced: unsupported app " + cfg.app);
}

void
setUp(Cell &cell, int parent)
{
    const rnr::ExperimentConfig &cfg = cell.cfg;
    cell.wl = buildWorkload(cfg, cell.index, parent);

    rnr::MachineConfig mcfg = rnr::MachineConfig::scaledDefault();
    mcfg.cores = cfg.cores;
    if (cfg.ideal_llc)
        mcfg = rnr::MachineConfig::withInfiniteLlc(mcfg);
    cell.sys = std::make_unique<rnr::System>(mcfg);

    rnr::RnrPrefetcher::Options rnr_opts;
    rnr_opts.control = cfg.control;
    rnr_opts.window_size = cfg.window_size;
    const std::string kind = rnr::toString(cfg.prefetcher);
    for (unsigned c = 0; c < cfg.cores; ++c) {
        std::unique_ptr<rnr::Prefetcher> p =
            rnr::createPrefetcher(cfg.prefetcher, rnr_opts);
        // `none` does no work per access and opts out of the hooks;
        // wrapping it would put virtual calls back on its hot path.
        if (cfg.prefetcher != rnr::PrefetcherKind::None)
            p = std::make_unique<TimedPrefetcher>(std::move(p),
                                                  &g_totals.hook_s[kind]);
        p->configureFor(*cell.wl, c);
        cell.sys->mem().setPrefetcher(c, p.get());
        cell.prefetchers.push_back(std::move(p));
    }
    cell.result.config = cfg;
    cell.result.input_bytes = cell.wl->inputBytes();
    cell.result.target_bytes = cell.wl->targetBytes();
    cell.before = cell.capture();
}

/** Runs one iteration's materialised buffers through the machine. */
rnr::IterationResult
simulate(Cell &cell, const std::vector<rnr::TraceBuffer> &bufs, int parent)
{
    std::vector<const rnr::TraceBuffer *> ptrs;
    for (const rnr::TraceBuffer &b : bufs) {
        ptrs.push_back(&b);
        g_totals.records_simulated += b.size();
    }
    SpanScope s("sim", cell.index, parent, &g_totals.sim_s);
    return cell.sys->run(ptrs);
}

/** The tracefile app: every iteration re-reads the per-core files. */
void
runTraceFile(Cell &cell, int parent)
{
    const rnr::ExperimentConfig &cfg = cell.cfg;
    std::vector<rnr::TraceBuffer> bufs(cfg.cores);
    for (unsigned iter = 0; iter < cfg.iterations; ++iter) {
        {
            SpanScope s("tracestore.decode", cell.index, parent,
                        &g_totals.decode_s);
            cell.wl->emitIteration(iter, iter + 1 == cfg.iterations, bufs);
        }
        cell.record(simulate(cell, bufs, parent));
    }
}

/** Capture path: emit natively, encode into the store, simulate. */
void
runCapture(Cell &cell, int parent)
{
    const rnr::ExperimentConfig &cfg = cell.cfg;
    rnr::TraceStore &store = rnr::TraceStore::instance();
    rnr::TraceStore::Capture cap =
        store.beginCapture(cfg.workloadKey(), cfg.iterations, cfg.cores);
    std::vector<rnr::TraceBuffer> bufs(cfg.cores);
    for (unsigned iter = 0; iter < cfg.iterations; ++iter) {
        {
            SpanScope s("workloads.emit", cell.index, parent,
                        &g_totals.emit_s);
            cell.wl->emitIteration(iter, iter + 1 == cfg.iterations, bufs);
        }
        for (const rnr::TraceBuffer &b : bufs)
            g_totals.records_emitted += b.size();
        {
            SpanScope s("tracestore.encode", cell.index, parent,
                        &g_totals.encode_s);
            for (unsigned c = 0; c < cfg.cores; ++c)
                if (rnr::TraceIoResult r = cap.add(iter, c, bufs[c]); !r)
                    throw std::runtime_error("capture: " + r.message());
        }
        cell.record(simulate(cell, bufs, parent));
    }
    SpanScope s("tracestore.publish", cell.index, parent,
                &g_totals.publish_s);
    if (!cap.publish(cell.result.input_bytes, cell.result.target_bytes))
        throw std::runtime_error("capture: publish failed");
}

/** Replay path: stream each core's stored trace through the machine. */
void
runReplay(Cell &cell, const rnr::TraceStore::Entry &entry, int parent)
{
    const rnr::ExperimentConfig &cfg = cell.cfg;
    for (unsigned iter = 0; iter < cfg.iterations; ++iter) {
        cell.wl->beginReplayIteration(iter);
        std::vector<rnr::StreamingTraceReader> readers(cfg.cores);
        std::vector<std::unique_ptr<TimedSource>> timed;
        std::vector<rnr::TraceSource *> sources;
        {
            SpanScope s("tracestore.open", cell.index, parent,
                        &g_totals.decode_s);
            for (unsigned c = 0; c < cfg.cores; ++c) {
                const std::string path = entry.tracePath(iter, c);
                if (rnr::TraceIoResult r = readers[c].open(path); !r)
                    throw std::runtime_error(path + ": " + r.message());
                timed.push_back(std::make_unique<TimedSource>(readers[c]));
                sources.push_back(timed.back().get());
            }
        }
        rnr::IterationResult run;
        {
            SpanScope s("sim", cell.index, parent, &g_totals.sim_s);
            run = cell.sys->runStreaming(sources);
        }
        for (const rnr::StreamingTraceReader &r : readers)
            if (r.error())
                throw std::runtime_error(r.errorResult().message());
        cell.record(run);
    }
}

void
runCell(const std::string &spec, int index)
{
    const double t0 = now();
    Cell cell;
    cell.cfg = parseCell(spec);
    cell.index = index;
    {
        SpanScope root("cell", index, -1);
        setUp(cell, root.index());
        if (cell.cfg.app == "tracefile") {
            runTraceFile(cell, root.index());
        } else {
            // A hit is the store's read side, a miss its write side.
            rnr::TraceStore::Entry entry;
            double acquire_s = 0;
            const rnr::TraceStore::Acquire got = [&] {
                SpanScope s("tracestore.acquire", index, root.index(),
                            &acquire_s);
                return rnr::TraceStore::instance().acquire(
                    cell.cfg.workloadKey(), entry);
            }();
            if (got == rnr::TraceStore::Acquire::Hit) {
                g_totals.decode_s += acquire_s;
                runReplay(cell, entry, root.index());
            } else {
                g_totals.publish_s += acquire_s;
                runCapture(cell, root.index());
            }
        }
        for (unsigned c = 0; c < cell.cfg.cores; ++c)
            if (const rnr::RnrPrefetcher *r = cell.rnrOf(c)) {
                cell.result.seq_table_bytes += r->seqTableBytes();
                cell.result.div_table_bytes += r->divTableBytes();
            }
    }
    const double host_s = now() - t0;
    g_totals.wall_s += host_s;
    std::printf("{\"cell\":%s,\"host_s\":%.6f,\"stats\":%s}\n",
                quote(spec).c_str(), host_s,
                countersJson(cell.result).c_str());
    std::fflush(stdout);
}

void
writeSpans(const std::string &path, const std::vector<std::string> &cells)
{
    std::ofstream out(path);
    out << "{\"cells\":[";
    for (std::size_t i = 0; i < cells.size(); ++i)
        out << (i ? "," : "") << quote(cells[i]);
    out << "],\"spans\":[";
    const double t0 = g_spans.empty() ? 0 : g_spans.front().start;
    for (std::size_t i = 0; i < g_spans.size(); ++i) {
        const Span &s = g_spans[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":%s,\"cell\":%d,\"parent\":%d,"
                      "\"start_us\":%.1f,\"end_us\":%.1f}",
                      i ? "," : "", quote(s.name).c_str(), s.cell, s.parent,
                      (s.start - t0) * 1e6, (s.end - t0) * 1e6);
        out << buf << "\n";
    }
    out << "]}\n";
}

} // namespace

int
tracedMain(const std::vector<std::string> &args)
{
    std::string spans_path;
    std::vector<std::string> cells;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--spans" && i + 1 < args.size())
            spans_path = args[++i];
        else
            cells.push_back(args[i]);
    }

    rnr::ckpt::CheckpointStore &ckpt = rnr::ckpt::CheckpointStore::instance();
    const std::uint64_t warmups0 = ckpt.warmups();
    const std::uint64_t forks0 = ckpt.forks();
    for (std::size_t i = 0; i < cells.size(); ++i)
        runCell(cells[i], static_cast<int>(i));

    rnr::TraceStore &store = rnr::TraceStore::instance();
    std::uint64_t stored = 0;
    if (rnr::TraceStore::enabled())
        for (const rnr::TraceStore::Entry &e : store.listEntries())
            stored += e.stored_bytes;

    // sim_s includes the hooks and the block decodes that run inside
    // it; its self time excludes them.
    double hooks = 0, rnr_hooks = 0;
    std::string per_pf;
    for (const auto &[name, s] : g_totals.hook_s) {
        if (name == "rnr" || name == "rnr-combined")
            rnr_hooks += s;
        else
            hooks += s;
        per_pf += ",\"hook_s." + name + "\":" + std::to_string(s);
    }
    // What no layer above accounts for: machine and prefetcher set-up,
    // counter snapshots, replay bookkeeping.
    const double other = g_totals.wall_s - g_totals.input_s -
                         g_totals.build_s - g_totals.emit_s -
                         g_totals.encode_s - g_totals.publish_s -
                         g_totals.decode_s - g_totals.sim_s;
    std::printf(
        "{\"layers\":{\"wall_s\":%.6f,\"input_s\":%.6f,\"build_s\":%.6f,"
        "\"emit_s\":%.6f,\"encode_s\":%.6f,\"publish_s\":%.6f,"
        "\"decode_s\":%.6f,\"sim_s\":%.6f,\"sim_self_s\":%.6f,"
        "\"prefetch_hook_s\":%.6f,\"rnr_hook_s\":%.6f%s,\"other_s\":%.6f,"
        "\"hook_calls\":%llu,\"records_emitted\":%llu,"
        "\"records_simulated\":%llu,\"ckpt_warmups\":%llu,"
        "\"ckpt_forks\":%llu,\"stored_bytes\":%llu,\"quarantined\":%llu},"
        "\"peak_rss_mib\":%.3f}\n",
        g_totals.wall_s, g_totals.input_s, g_totals.build_s,
        g_totals.emit_s, g_totals.encode_s, g_totals.publish_s,
        g_totals.decode_s + g_totals.stream_s, g_totals.sim_s,
        g_totals.sim_s - hooks - rnr_hooks - g_totals.stream_s, hooks,
        rnr_hooks, per_pf.c_str(), other,
        static_cast<unsigned long long>(g_totals.hook_calls),
        static_cast<unsigned long long>(g_totals.records_emitted),
        static_cast<unsigned long long>(g_totals.records_simulated),
        static_cast<unsigned long long>(ckpt.warmups() - warmups0),
        static_cast<unsigned long long>(ckpt.forks() - forks0),
        static_cast<unsigned long long>(stored),
        static_cast<unsigned long long>(store.corruptEntries()),
        peakRssMib());
    if (!spans_path.empty())
        writeSpans(spans_path, cells);
    return 0;
}

} // namespace perfbench
