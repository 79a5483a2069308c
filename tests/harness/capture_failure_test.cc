/**
 * @file
 * A capture whose writes fail mid-iteration is aborted and the cell
 * reruns without the store: its counters equal a store-off run, no
 * entry is published, and a later run of the same key captures and
 * publishes normally.
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
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/runner.h"
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

/** The child's body; returns the number of failed checks. */
int
captureFailureChild(const std::string &root)
{
    int failed = 0;
    auto check = [&failed](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr, "check failed: %s\n", what);
            ++failed;
        }
    };
    // Only the trace store may write files: no result cache, no input
    // snapshots.
    setenv("RNR_CACHE", "0", 1);
    setenv("RNR_CKPT", "0", 1);
    setenv("RNR_TRACE_DIR", root.c_str(), 1);
    unsetenv("RNR_TRACE_CAP_MB");
    TraceStore &store = TraceStore::instance();
    store.resetForTest();

    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.cores = 4;
    cfg.iterations = 3;
    cfg.prefetcher = PrefetcherKind::Rnr;

    setenv("RNR_TRACE_STORE", "0", 1);
    const ExperimentResult off = runExperimentUncached(cfg);
    unsetenv("RNR_TRACE_STORE");

    // A core's iteration encodes to ~1.3 MB; 256 KiB fails its file
    // part way through iteration 0.
    rlimit lim{};
    getrlimit(RLIMIT_FSIZE, &lim);
    const rlim_t was = lim.rlim_cur;
    std::signal(SIGXFSZ, SIG_IGN);
    lim.rlim_cur = 256 * 1024;
    check(setrlimit(RLIMIT_FSIZE, &lim) == 0, "lower RLIMIT_FSIZE");

    const ExperimentResult failed_capture = runExperimentUncached(cfg);
    check(sameResult(failed_capture, off),
          "failed capture: counters equal the store-off run");
    check(store.captures() == 0, "failed capture: nothing captured");
    check(store.listEntries().empty(), "failed capture: no entry listed");
    check(countNamed(root, ".tmp.") == 0,
          "failed capture: temp directory removed");
    check(countNamed(root, traceStoreHashName(cfg.workloadKey())) == 0,
          "failed capture: no entry directory or lock left");

    lim.rlim_cur = was;
    check(setrlimit(RLIMIT_FSIZE, &lim) == 0, "restore RLIMIT_FSIZE");
    const ExperimentResult cold = runExperimentUncached(cfg);
    check(sameResult(cold, off), "recapture: counters equal store-off");
    check(store.captures() == 1, "recapture: published once");
    check(store.listEntries().size() == 1, "recapture: one entry listed");
    const ExperimentResult warm = runExperimentUncached(cfg);
    check(store.hits() == 1, "warm: served from the entry");
    check(sameResult(warm, off), "warm: counters equal store-off");
    return failed;
}

TEST(CaptureFailureTest, FailedWritesRerunStoreOffAndPublishNothing)
{
    const std::string root =
        (fs::temp_directory_path() / "rnr_capture_failure_test").string();
    fs::remove_all(root);
    std::fflush(nullptr);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0)
        _exit(captureFailureChild(root));
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    fs::remove_all(root);
    ASSERT_TRUE(WIFEXITED(status)) << "child died, status " << status;
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << WEXITSTATUS(status) << " checks failed (listed on stderr)";
}

} // namespace
} // namespace rnr
