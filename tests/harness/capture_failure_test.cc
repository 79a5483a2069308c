/**
 * @file
 * A capture whose writes fail mid-iteration is aborted and the cell
 * reruns without the store: its counters equal a store-off run, no
 * entry is published, and a later run of the same key captures and
 * publishes normally.
 *
 * The same holds for the probes such a cell carries: they end up
 * holding the rerun's series and attribution and nothing of the
 * aborted capture, as do probes reused across two runs.
 *
 * The writes are made to fail for real: a forked child lowers
 * RLIMIT_FSIZE below the size of one trace file and ignores SIGXFSZ, so
 * write(2) returns EFBIG part way through the first iteration.  The
 * child reports through its exit status; every check it makes is
 * printed on failure.
 */
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <vector>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/runner.h"
#include "sim/attrib.h"
#include "sim/timeseries.h"
#include "tracestore/trace_store.h"

namespace rnr {
namespace {

namespace fs = std::filesystem;

bool
sameResult(const ExperimentResult &a, const ExperimentResult &b)
{
    if (a.iterations.size() != b.iterations.size())
        return false;
    for (std::size_t i = 0; i < a.iterations.size(); ++i) {
#define RNR_SAME_FIELD(type, name)                                          \
    if (a.iterations[i].name != b.iterations[i].name)                      \
        return false;
        RNR_ITER_STAT_FIELDS(RNR_SAME_FIELD)
#undef RNR_SAME_FIELD
    }
    return a.seq_table_bytes == b.seq_table_bytes &&
           a.div_table_bytes == b.div_table_bytes;
}

/** Counts directory entries under @p root whose name starts with
 *  @p prefix. */
unsigned
countNamed(const std::string &root, const std::string &prefix)
{
    unsigned n = 0;
    std::error_code ec;
    for (const auto &d : fs::directory_iterator(root, ec))
        if (d.path().filename().string().rfind(prefix, 0) == 0)
            ++n;
    return n;
}

using Check = std::function<void(bool, const char *)>;

/** Both instruments of one run. */
struct Instruments {
    TelemetrySampler telemetry{512};
    AttribCollector attrib;

    Probes probes() { return {.telemetry = &telemetry, .attrib = &attrib}; }
};

/** Checks that @p got holds what the clean run @p want does: unique
 *  series names, the same series and samples, the same attribution
 *  totals and the same replay-window table. */
void
checkSameHarvest(const Check &check, Instruments &got, Instruments &want)
{
    const TelemetryBlob g = got.telemetry.harvest();
    const TelemetryBlob w = want.telemetry.harvest();
    std::vector<std::string> names, want_names;
    for (const TelemetrySeriesBlob &sb : g.series)
        names.push_back(sb.name);
    for (const TelemetrySeriesBlob &sb : w.series)
        want_names.push_back(sb.name);
    check(std::set<std::string>(names.begin(), names.end()).size() ==
              names.size(),
          "probes: series names unique");
    check(names == want_names, "probes: the clean run's series");
    check(g.samples_taken == w.samples_taken,
          "probes: the clean run's samples_taken");
    const AttribBlob ga = got.attrib.harvest();
    const AttribBlob wa = want.attrib.harvest();
    check(ga.totals.issued == wa.totals.issued &&
              ga.totals.useful == wa.totals.useful &&
              ga.totals.late_merged == wa.totals.late_merged &&
              ga.totals.evicted_unused == wa.totals.evicted_unused &&
              ga.totals.pollution == wa.totals.pollution,
          "probes: the clean run's attribution totals");
    check(ga.windows == wa.windows, "probes: the clean run's window table");
}

ExperimentConfig
failingCell()
{
    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.cores = 4;
    cfg.iterations = 3;
    cfg.prefetcher = PrefetcherKind::Rnr;
    return cfg;
}

/** Lowers RLIMIT_FSIZE so that a capture of failingCell() fails: a
 *  core's iteration encodes to ~1.3 MB, and 256 KiB fails its file
 *  part way through iteration 0.  Returns the limit to restore. */
rlim_t
lowerFileSizeLimit(const Check &check)
{
    rlimit lim{};
    getrlimit(RLIMIT_FSIZE, &lim);
    const rlim_t was = lim.rlim_cur;
    std::signal(SIGXFSZ, SIG_IGN);
    lim.rlim_cur = 256 * 1024;
    check(setrlimit(RLIMIT_FSIZE, &lim) == 0, "lower RLIMIT_FSIZE");
    return was;
}

/** Only the trace store may write files: no result cache and no
 *  observability output. */
void
storeOnlyEnvironment(const std::string &root)
{
    setenv("RNR_CACHE", "0", 1);
    unsetenv("RNR_OBS");
    setenv("RNR_TRACE_DIR", root.c_str(), 1);
    TraceStore::instance().resetForTest();
}

/** Runs @p body in a forked child against a fresh store root and
 *  expects no failed check; the child prints each failed check and
 *  exits with their count. */
void
runInChild(const char *root_name,
           void (*body)(const std::string &, const Check &))
{
    const std::string root =
        (fs::temp_directory_path() / root_name).string();
    fs::remove_all(root);
    std::fflush(nullptr);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        int failed = 0;
        body(root, [&failed](bool ok, const char *what) {
            if (!ok) {
                std::fprintf(stderr, "check failed: %s\n", what);
                ++failed;
            }
        });
        _exit(failed);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    fs::remove_all(root);
    ASSERT_TRUE(WIFEXITED(status)) << "child died, status " << status;
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << WEXITSTATUS(status) << " checks failed (listed on stderr)";
}

/** A capture whose writes fail, then the same key with room to write. */
void
captureFailureChild(const std::string &root, const Check &check)
{
    storeOnlyEnvironment(root);
    TraceStore &store = TraceStore::instance();
    const ExperimentConfig cfg = failingCell();

    setenv("RNR_TRACE_STORE", "0", 1);
    const ExperimentResult off = runExperimentUncached(cfg);
    unsetenv("RNR_TRACE_STORE");

    const rlim_t was = lowerFileSizeLimit(check);

    const ExperimentResult failed_capture = runExperimentUncached(cfg);
    check(sameResult(failed_capture, off),
          "failed capture: counters equal the store-off run");
    check(store.captures() == 0, "failed capture: nothing captured");
    check(store.listEntries().empty(), "failed capture: no entry listed");
    check(countNamed(root, ".tmp.") == 0,
          "failed capture: temp directory removed");
    check(countNamed(root, BlobStore::hashName(cfg.workloadKey())) == 0,
          "failed capture: no entry directory or lock left");

    rlimit lim{};
    getrlimit(RLIMIT_FSIZE, &lim);
    lim.rlim_cur = was;
    check(setrlimit(RLIMIT_FSIZE, &lim) == 0, "restore RLIMIT_FSIZE");
    const ExperimentResult cold = runExperimentUncached(cfg);
    check(sameResult(cold, off), "recapture: counters equal store-off");
    check(store.captures() == 1, "recapture: published once");
    check(store.listEntries().size() == 1, "recapture: one entry listed");
    const ExperimentResult warm = runExperimentUncached(cfg);
    check(store.hits() == 1, "warm: served from the entry");
    check(sameResult(warm, off), "warm: counters equal store-off");
}

/** A failed capture's probes hold only the store-off rerun. */
void
probeResetChild(const std::string &root, const Check &check)
{
    storeOnlyEnvironment(root);
    const ExperimentConfig cfg = failingCell();

    setenv("RNR_TRACE_STORE", "0", 1);
    Instruments clean;
    runExperimentUncached(cfg, clean.probes());
    unsetenv("RNR_TRACE_STORE");

    lowerFileSizeLimit(check);
    Instruments rerun;
    const ExperimentResult r = runExperimentUncached(cfg, rerun.probes());
    check(TraceStore::instance().captures() == 0,
          "failed capture: nothing captured");
    check(r.telemetry && r.telemetry->samples_taken ==
                             rerun.telemetry.samplesTaken(),
          "failed capture: the result carries the probes' harvest");
    checkSameHarvest(check, rerun, clean);
}

TEST(CaptureFailureTest, FailedWritesRerunStoreOffAndPublishNothing)
{
    runInChild("rnr_capture_failure_test", captureFailureChild);
}

TEST(CaptureFailureTest, ProbesHoldOnlyTheStoreOffRerun)
{
    runInChild("rnr_capture_failure_probes_test", probeResetChild);
}

TEST(ProbeResetTest, ReusedProbesHoldOnlyTheLastRun)
{
    setenv("RNR_CACHE", "0", 1);
    setenv("RNR_TRACE_STORE", "0", 1);
    unsetenv("RNR_OBS");
    ExperimentConfig first;
    first.app = "pagerank";
    first.input = "amazon";
    first.cores = 2;
    first.iterations = 2;
    first.prefetcher = PrefetcherKind::Rnr;
    ExperimentConfig second = first;
    second.prefetcher = PrefetcherKind::Stream;

    Instruments clean;
    runExperimentUncached(second, clean.probes());

    Instruments reused;
    runExperimentUncached(first, reused.probes());
    runExperimentUncached(second, reused.probes());

    std::vector<std::string> failures;
    checkSameHarvest(
        [&failures](bool ok, const char *what) {
            if (!ok)
                failures.emplace_back(what);
        },
        reused, clean);
    EXPECT_TRUE(failures.empty()) << ::testing::PrintToString(failures);
    // The first cell was RnR, the second is not: none of its replay-lane
    // series may survive.
    EXPECT_EQ(reused.telemetry.findSeries("rnr.core0.n_pace"), nullptr);
}

} // namespace
} // namespace rnr
