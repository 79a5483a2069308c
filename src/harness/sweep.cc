#include "harness/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#ifdef _WIN32
#include <io.h>
#define rnr_isatty _isatty
#define rnr_fileno _fileno
#else
#include <unistd.h>
#define rnr_isatty isatty
#define rnr_fileno fileno
#endif

#include "ckpt/ckpt_store.h"
#include "harness/json_parse.h"
#include "harness/json_write.h"
#include "harness/runner.h"
#include "tracestore/trace_store.h"

namespace rnr {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

std::uint64_t
hostPeakRssBytes()
{
#ifdef __linux__
    // VmHWM ("high water mark") is the peak resident set; the line looks
    // like "VmHWM:     12345 kB".
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            const std::uint64_t kb =
                std::strtoull(line.c_str() + 6, nullptr, 10);
            return kb * 1024;
        }
    }
#endif
    return 0;
}

std::string
formatSweepEta(std::size_t done, std::size_t total, std::size_t simulated,
               double elapsed_sec)
{
    // No signal: nothing finished, the clock has not moved, or every
    // finished cell was a warm cache hit — per-cell time then says
    // nothing about the simulations still to run.
    if (done == 0 || elapsed_sec <= 0.0 || simulated == 0)
        return "--";
    const double eta = elapsed_sec / static_cast<double>(done) *
                       static_cast<double>(total - std::min(done, total));
    if (!std::isfinite(eta))
        return "--";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0fs", eta);
    return buf;
}

namespace {

/** Serialises one result as a JSON object (no external JSON dep). */
void
appendResultJson(std::ostringstream &os, const ExperimentResult &r,
                 const char *indent)
{
    const ExperimentConfig &c = r.config;
    os << indent << "{\n";
    os << indent << "  \"key\": \"" << jsonEscape(c.key()) << "\",\n";
    os << indent << "  \"config\": {\"app\": \"" << jsonEscape(c.app)
       << "\", \"input\": \"" << jsonEscape(c.input)
       << "\", \"prefetcher\": \"" << toString(c.prefetcher)
       << "\", \"control\": \""
       << replayControlName(c.control) << "\", \"window_size\": "
       << c.window_size << ", \"iterations\": " << c.iterations
       << ", \"cores\": " << c.cores << ", \"ideal_llc\": "
       << (c.ideal_llc ? "true" : "false") << "},\n";
    os << indent << "  \"input_bytes\": " << r.input_bytes
       << ", \"target_bytes\": " << r.target_bytes
       << ", \"seq_table_bytes\": " << r.seq_table_bytes
       << ", \"div_table_bytes\": " << r.div_table_bytes << ",\n";
    os << indent << "  \"iterations\": [\n";
    for (std::size_t i = 0; i < r.iterations.size(); ++i) {
        const IterStats &it = r.iterations[i];
        os << indent << "    {";
        // Keys and order come from the IterStats X-macro, so the JSON
        // schema follows the struct automatically.
        const char *sep = "";
#define RNR_JSON_FIELD(type, name)                                          \
        os << sep << "\"" #name "\": " << it.name;                          \
        sep = ", ";
        RNR_ITER_STAT_FIELDS(RNR_JSON_FIELD)
#undef RNR_JSON_FIELD
        os << "}" << (i + 1 < r.iterations.size() ? "," : "") << "\n";
    }
    os << indent << "  ]\n";
    os << indent << "}";
}

/** Throttled stderr reporter; all methods are called under one mutex. */
class ProgressReporter
{
  public:
    ProgressReporter(bool enabled, std::string label, std::size_t total)
        : enabled_(enabled), tty_(rnr_isatty(rnr_fileno(stderr)) != 0),
          label_(std::move(label)), total_(total), start_(Clock::now())
    {
    }

    void
    cellDone(std::size_t done, std::size_t simulated, std::size_t hits)
    {
        if (!enabled_ || total_ == 0)
            return;
        // On a terminal rewrite one line per cell; in a log (CI) emit
        // roughly ten lines per sweep so the output stays readable.
        const std::size_t stride = tty_ ? 1 : std::max<std::size_t>(
                                                  1, total_ / 10);
        if (done % stride != 0 && done != total_)
            return;
        const double elapsed = secondsSince(start_);
        const std::string eta =
            formatSweepEta(done, total_, simulated, elapsed);
        std::fprintf(stderr,
                     "%s[%s] %zu/%zu cells | %zu simulated, %zu cached "
                     "| %.1fs elapsed, ETA %s%s",
                     tty_ ? "\r" : "", label_.c_str(), done, total_,
                     simulated, hits, elapsed, eta.c_str(),
                     tty_ ? "   " : "\n");
        std::fflush(stderr);
    }

    void
    finish(const SweepStats &stats, const SweepHostInfo &host)
    {
        if (!enabled_ || total_ == 0)
            return;
        std::fprintf(stderr,
                     "%s[%s] done: %zu cells (%zu simulated, %zu "
                     "cached, %zu duplicates folded) in %.1fs\n",
                     tty_ ? "\r" : "", label_.c_str(), stats.cells,
                     stats.simulated, stats.cache_hits,
                     stats.duplicates, stats.elapsed_sec);
        // One line of trace-store accounting: how many of the
        // simulations above re-executed a workload natively (captures)
        // versus replaying the shared corpus (hits).
        const TraceStore &ts = TraceStore::instance();
        if (TraceStore::enabled() && (ts.captures() + ts.hits()) > 0)
            std::fprintf(stderr,
                         "[%s] trace store: %llu workloads captured, "
                         "%llu replays served from %s\n",
                         label_.c_str(),
                         static_cast<unsigned long long>(ts.captures()),
                         static_cast<unsigned long long>(ts.hits()),
                         TraceStore::rootPath().c_str());
        // One line of checkpoint accounting: how many inputs this sweep
        // warmed up natively versus forked from a shared snapshot.
        if (ckpt::CheckpointStore::enabled() &&
            (host.ckpt_warmups + host.ckpt_forks) > 0)
            std::fprintf(
                stderr, "[%s] ckpt: %llu warm-ups, %llu forks from %s\n",
                label_.c_str(),
                static_cast<unsigned long long>(host.ckpt_warmups),
                static_cast<unsigned long long>(host.ckpt_forks),
                ckpt::CheckpointStore::rootPath().c_str());
        // And one of host accounting: what the batch cost this process.
        // Peak RSS is cumulative (a high-water mark), so it bounds, not
        // measures, this sweep; "n/a" on hosts without procfs.
        if (host.peak_rss_bytes > 0)
            std::fprintf(stderr,
                         "[%s] host: %.1fs wall, peak RSS %.1f MiB\n",
                         label_.c_str(), host.wall_sec,
                         static_cast<double>(host.peak_rss_bytes) /
                             (1024.0 * 1024.0));
        else
            std::fprintf(stderr, "[%s] host: %.1fs wall, peak RSS n/a\n",
                         label_.c_str(), host.wall_sec);
    }

  private:
    bool enabled_;
    bool tty_;
    std::string label_;
    std::size_t total_;
    Clock::time_point start_;
};

bool
progressEnabled(const SweepOptions &opts)
{
    if (opts.progress >= 0)
        return opts.progress != 0;
    const char *p = std::getenv("RNR_PROGRESS");
    return !(p && std::string(p) == "0");
}

std::string
jsonOutPath(const SweepOptions &opts)
{
    if (!opts.json_out.empty())
        return opts.json_out;
    if (const char *p = std::getenv("RNR_JSON_OUT"))
        return p;
    return "";
}

bool
jsonHostEnabled(const SweepOptions &opts)
{
    if (opts.json_host >= 0)
        return opts.json_host != 0;
    const char *p = std::getenv("RNR_JSON_HOST");
    return !(p && std::string(p) == "0");
}

} // namespace

unsigned
SweepRunner::resolveJobs(const SweepOptions &opts)
{
    if (opts.jobs > 0)
        return opts.jobs;
    if (const char *p = std::getenv("RNR_JOBS")) {
        const long n = std::strtol(p, nullptr, 10);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

SweepRunner::SweepRunner(SweepOptions opts) : opts_(std::move(opts)) {}

void
SweepRunner::add(const ExperimentConfig &cfg)
{
    std::string key = cfg.key();
    if (std::find(keys_.begin(), keys_.end(), key) != keys_.end()) {
        ++stats_.duplicates;
        return;
    }
    keys_.push_back(std::move(key));
    cells_.push_back(cfg);
}

void
SweepRunner::add(const std::vector<ExperimentConfig> &cfgs)
{
    for (const ExperimentConfig &cfg : cfgs)
        add(cfg);
}

std::vector<ExperimentResult>
SweepRunner::run()
{
    const auto start = Clock::now();
    const std::size_t total = cells_.size();
    stats_.cells = total;

    std::vector<ExperimentResult> results(total);
    std::size_t done = 0, simulated = 0, hits = 0;
    std::exception_ptr first_error;
    std::mutex mu; // guards the tallies, the reporter and first_error
    ProgressReporter reporter(progressEnabled(opts_), opts_.label, total);

    // Snapshot the cumulative checkpoint counters so the sweep can
    // report its own delta (the store counts for the whole process).
    const ckpt::CheckpointStore &ckpt_store =
        ckpt::CheckpointStore::instance();
    const std::uint64_t ckpt_warmups0 = ckpt_store.warmups();
    const std::uint64_t ckpt_forks0 = ckpt_store.forks();

    // Each worker claims the next unclaimed cell until none are left.
    // A throwing cell stops its own worker only; the rest drain the
    // batch and the exception is rethrown after every thread joins.
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < total;) {
            bool cached = false;
            try {
                results[i] = runExperiment(cells_[i], &cached);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                if (!first_error)
                    first_error = std::current_exception();
                return;
            }
            std::lock_guard<std::mutex> lock(mu);
            ++(cached ? hits : simulated);
            reporter.cellDone(++done, simulated, hits);
        }
    };

    const unsigned jobs = static_cast<unsigned>(std::min<std::size_t>(
        resolveJobs(opts_), std::max<std::size_t>(total, 1)));
    if (jobs == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    stats_.cache_hits = hits;
    stats_.simulated = simulated;
    stats_.elapsed_sec = secondsSince(start);
    if (first_error)
        std::rethrow_exception(first_error);

    SweepHostInfo host;
    host.wall_sec = stats_.elapsed_sec;
    host.peak_rss_bytes = hostPeakRssBytes();
    host.ckpt_warmups = ckpt_store.warmups() - ckpt_warmups0;
    host.ckpt_forks = ckpt_store.forks() - ckpt_forks0;
    reporter.finish(stats_, host);

    const std::string json = jsonOutPath(opts_);
    if (!json.empty() &&
        !writeResultsJson(json, results, opts_.label,
                          jsonHostEnabled(opts_) ? &host : nullptr))
        std::fprintf(stderr,
                     "rnr: error: sweep: [%s] could not write JSON results "
                     "%s\n",
                     opts_.label.c_str(), json.c_str());
    return results;
}

std::vector<ExperimentResult>
runSweep(const std::vector<ExperimentConfig> &cfgs, SweepOptions opts)
{
    SweepRunner runner(std::move(opts));
    runner.add(cfgs);
    return runner.run();
}

bool
writeResultsJson(const std::string &path,
                 const std::vector<ExperimentResult> &results,
                 const std::string &label, const SweepHostInfo *host)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"rnr-sweep-v2\",\n  \"label\": \""
       << jsonEscape(label) << "\",\n";
    if (host) {
        char wall[32];
        std::snprintf(wall, sizeof(wall), "%.3f", host->wall_sec);
        os << "  \"host\": {\"wall_sec\": " << wall
           << ", \"peak_rss_bytes\": " << host->peak_rss_bytes
           << ", \"ckpt_warmups\": " << host->ckpt_warmups
           << ", \"ckpt_forks\": " << host->ckpt_forks << "},\n";
    }
    os << "  \"cells\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        appendResultJson(os, results[i], "    ");
        os << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return writeFileAtomic(path, os.str());
}

bool
readResultsJson(const std::string &path, std::vector<ExperimentResult> &out,
                std::string *label, SweepHostInfo *host, std::string *error)
{
    out.clear();
    if (label)
        label->clear();
    if (host)
        *host = SweepHostInfo{};

    JsonValue doc;
    if (!parseJsonFile(path, doc, error))
        return false;

    auto fail = [&](const std::string &what) {
        if (error)
            *error = path + ": " + what;
        return false;
    };

    const JsonValue *schema = doc.find("schema");
    if (!schema || schema->kind != JsonValue::Kind::String)
        return fail("missing schema");
    if (schema->text != "rnr-sweep-v1" && schema->text != "rnr-sweep-v2")
        return fail("unknown schema '" + schema->text + "'");

    if (label)
        if (const JsonValue *l = doc.find("label"))
            *label = l->text;
    if (host)
        if (const JsonValue *h = doc.find("host")) {
            if (const JsonValue *w = h->find("wall_sec"))
                host->wall_sec = w->asDouble();
            if (const JsonValue *r = h->find("peak_rss_bytes"))
                host->peak_rss_bytes = r->asU64();
            if (const JsonValue *v = h->find("ckpt_warmups"))
                host->ckpt_warmups = v->asU64();
            if (const JsonValue *v = h->find("ckpt_forks"))
                host->ckpt_forks = v->asU64();
        }

    const JsonValue *cells = doc.find("cells");
    if (!cells || !cells->isArray())
        return fail("missing cells array");

    for (const JsonValue &cell : cells->items) {
        ExperimentResult r;
        const JsonValue *cfg = cell.find("config");
        if (!cfg || !cfg->isObject())
            return fail("cell without config");
        ExperimentConfig &c = r.config;
        if (const JsonValue *v = cfg->find("app"))
            c.app = v->text;
        if (const JsonValue *v = cfg->find("input"))
            c.input = v->text;
        if (const JsonValue *v = cfg->find("prefetcher")) {
            try {
                c.prefetcher = prefetcherKindFromString(v->text);
            } catch (const std::exception &) {
                return fail("unknown prefetcher '" + v->text + "'");
            }
        }
        if (const JsonValue *v = cfg->find("control"))
            if (!replayControlFromName(v->text, c.control))
                return fail("unknown control '" + v->text + "'");
        if (const JsonValue *v = cfg->find("window_size"))
            c.window_size = static_cast<std::uint32_t>(v->asU64());
        if (const JsonValue *v = cfg->find("iterations"))
            c.iterations = static_cast<unsigned>(v->asU64());
        if (const JsonValue *v = cfg->find("cores"))
            c.cores = static_cast<unsigned>(v->asU64());
        if (const JsonValue *v = cfg->find("ideal_llc"))
            c.ideal_llc = v->boolean;

        if (const JsonValue *v = cell.find("input_bytes"))
            r.input_bytes = v->asU64();
        if (const JsonValue *v = cell.find("target_bytes"))
            r.target_bytes = v->asU64();
        if (const JsonValue *v = cell.find("seq_table_bytes"))
            r.seq_table_bytes = v->asU64();
        if (const JsonValue *v = cell.find("div_table_bytes"))
            r.div_table_bytes = v->asU64();

        const JsonValue *iters = cell.find("iterations");
        if (!iters || !iters->isArray())
            return fail("cell without iterations array");
        for (const JsonValue &itv : iters->items) {
            IterStats it;
#define RNR_READ_FIELD(type, name)                                          \
            if (const JsonValue *v = itv.find(#name))                       \
                it.name = static_cast<type>(v->asU64());
            RNR_ITER_STAT_FIELDS(RNR_READ_FIELD)
#undef RNR_READ_FIELD
            r.iterations.push_back(it);
        }
        out.push_back(std::move(r));
    }
    return true;
}

} // namespace rnr
