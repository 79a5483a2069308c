/**
 * @file
 * End-to-end trace-store harness tests: streaming replay must be
 * bit-identical to the materialised path, a sweep must capture each
 * workload exactly once (and zero times when warm), and a trace file on
 * disk must run as a workload ("tracefile" app), streamed with results
 * identical to materialising it.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "cpu/system.h"
#include "harness/runner.h"
#include "harness/system_counters.h"
#include "prefetch/factory.h"
#include "sim/rng.h"
#include "tracestore/trace_codec.h"
#include "tracestore/trace_store.h"
#include "workloads/trace_replay.h"

namespace rnr {
namespace {

namespace fs = std::filesystem;

/** Field-by-field equality over the whole X-macro'd IterStats. */
void
expectSameStats(const IterStats &a, const IterStats &b, const char *what)
{
#define RNR_CHECK_FIELD(type, name)                                         \
    EXPECT_EQ(a.name, b.name) << what << ": field " #name;
    RNR_ITER_STAT_FIELDS(RNR_CHECK_FIELD)
#undef RNR_CHECK_FIELD
}

void
expectSameResult(const ExperimentResult &a, const ExperimentResult &b,
                 const char *what)
{
    ASSERT_EQ(a.iterations.size(), b.iterations.size()) << what;
    for (std::size_t i = 0; i < a.iterations.size(); ++i)
        expectSameStats(a.iterations[i], b.iterations[i], what);
    EXPECT_EQ(a.input_bytes, b.input_bytes) << what;
    EXPECT_EQ(a.target_bytes, b.target_bytes) << what;
    EXPECT_EQ(a.seq_table_bytes, b.seq_table_bytes) << what;
    EXPECT_EQ(a.div_table_bytes, b.div_table_bytes) << what;
}

class TraceReplayHarnessTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setenv("RNR_CACHE", "0", 1);
        setenv("RNR_PROGRESS", "0", 1);
        root_ = (fs::temp_directory_path() /
                 ("rnr_replay_test_" +
                  std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name())))
                    .string();
        fs::remove_all(root_);
        setenv("RNR_TRACE_DIR", root_.c_str(), 1);
        unsetenv("RNR_TRACE_STORE");
        TraceStore::instance().resetForTest();
    }

    void
    TearDown() override
    {
        TraceStore::instance().resetForTest();
        unsetenv("RNR_TRACE_DIR");
        unsetenv("RNR_TRACE_STORE");
        fs::remove_all(root_);
    }

    /** Runs @p cfg three ways — store off, store cold, store warm —
     *  and requires all three results to be bit-identical. */
    void
    checkEquivalence(const ExperimentConfig &cfg)
    {
        TraceStore &store = TraceStore::instance();

        setenv("RNR_TRACE_STORE", "0", 1);
        const ExperimentResult off = runExperimentUncached(cfg);
        unsetenv("RNR_TRACE_STORE");

        const ExperimentResult cold = runExperimentUncached(cfg);
        EXPECT_EQ(store.captures(), 1u);
        EXPECT_EQ(store.hits(), 0u);

        const ExperimentResult warm = runExperimentUncached(cfg);
        EXPECT_EQ(store.captures(), 1u);
        EXPECT_EQ(store.hits(), 1u);

        expectSameResult(cold, off, "cold-capture vs store-off");
        expectSameResult(warm, off, "warm-replay vs store-off");
    }

    /** Writes a 4-core `<prefix>.c<K>.rnrt` set of @p records v2
     *  records per core (a gather over a 4 MiB region plus a walk of
     *  an index array) and returns the prefix. */
    std::string
    writeFourCoreFiles(std::size_t records)
    {
        fs::create_directories(root_);
        const std::string prefix = (fs::path(root_) / "held").string();
        for (unsigned c = 0; c < 4; ++c) {
            Rng rng(31 + c);
            TraceBuffer buf;
            for (std::size_t i = 0; i < records; ++i) {
                if (i % 3 == 0)
                    buf.push(TraceRecord::load(
                        0x1000000 + 8 * (c * records + i), 11, 1));
                else
                    buf.push(TraceRecord::load(
                        0x2000000 + 64 * rng.below(1 << 16), 12, 3));
            }
            const std::string path =
                prefix + ".c" + std::to_string(c) + ".rnrt";
            EXPECT_TRUE(bool(writeTraceFileV2(path, buf)));
        }
        return prefix;
    }

    std::string root_;
};

ExperimentConfig
tracefileCell(const std::string &prefix)
{
    ExperimentConfig cfg;
    cfg.app = "tracefile";
    cfg.input = prefix;
    cfg.cores = 4;
    cfg.iterations = 3;
    cfg.prefetcher = PrefetcherKind::Rnr;
    return cfg;
}

/** The tracefile cell @p cfg simulated by hand: every iteration
 *  materialised by emitIteration() and run by System::run(). */
ExperimentResult
materializedTraceFileRun(const ExperimentConfig &cfg)
{
    WorkloadOptions opts;
    opts.cores = cfg.cores;
    opts.window_size = cfg.window_size;
    TraceFileWorkload wl(cfg.input, opts);

    MachineConfig mcfg = MachineConfig::scaledDefault();
    mcfg.cores = cfg.cores;
    System sys(mcfg);
    RnrPrefetcher::Options rnr_opts;
    rnr_opts.control = cfg.control;
    rnr_opts.window_size = cfg.window_size;
    std::vector<std::unique_ptr<Prefetcher>> prefetchers;
    for (unsigned c = 0; c < cfg.cores; ++c) {
        prefetchers.push_back(createPrefetcher(cfg.prefetcher, rnr_opts));
        prefetchers.back()->configureFor(wl, c);
        sys.mem().setPrefetcher(c, prefetchers.back().get());
    }

    ExperimentResult r;
    r.input_bytes = wl.inputBytes();
    r.target_bytes = wl.targetBytes();
    SystemCounters before = SystemCounters::capture(sys);
    std::vector<TraceBuffer> bufs(cfg.cores);
    for (unsigned iter = 0; iter < cfg.iterations; ++iter) {
        wl.emitIteration(iter, iter + 1 == cfg.iterations, bufs);
        std::vector<const TraceBuffer *> ptrs;
        for (const TraceBuffer &b : bufs)
            ptrs.push_back(&b);
        const IterationResult run = sys.run(ptrs);
        const SystemCounters after = SystemCounters::capture(sys);
        IterStats it = after.delta(before);
        it.cycles = run.cycles();
        it.instructions = run.instructions;
        r.iterations.push_back(it);
        before = after;
    }
    for (unsigned c = 0; c < cfg.cores; ++c)
        if (RnrPrefetcher *p = asRnr(sys.mem().prefetcher(c))) {
            r.seq_table_bytes += p->seqTableBytes();
            r.div_table_bytes += p->divTableBytes();
        }
    return r;
}

/** Runs @p run and requires a std::runtime_error whose message names
 *  @p path. */
template <typename Run>
void
expectErrorNaming(Run run, const std::string &path)
{
    try {
        run();
        ADD_FAILURE() << "no error for " << path;
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << e.what();
    }
}

TEST_F(TraceReplayHarnessTest, StreamingReplayMatchesMaterializedPageRank)
{
    // Droplet reads PageRank's per-iteration p_curr base via its hint,
    // so this covers Workload::beginReplayIteration() on the replay
    // path (a stale base would shift every prefetch address).
    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.iterations = 3;
    cfg.prefetcher = PrefetcherKind::Droplet;
    checkEquivalence(cfg);
}

TEST_F(TraceReplayHarnessTest, StreamingReplayMatchesMaterializedSpcg)
{
    // RnR consumes the trace's control records (record pass, then
    // replay passes), so this covers control round-tripping end to end.
    ExperimentConfig cfg;
    cfg.app = "spcg";
    cfg.input = "pdb1HYS";
    cfg.iterations = 2;
    cfg.prefetcher = PrefetcherKind::Rnr;
    checkEquivalence(cfg);
}

TEST_F(TraceReplayHarnessTest, SweepCapturesEachWorkloadOnceThenNever)
{
    TraceStore &store = TraceStore::instance();

    // Three prefetcher configs over ONE workload: the store key excludes
    // the prefetcher, so a cold sweep captures exactly once and serves
    // the other cells from disk.
    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.iterations = 2;
    for (PrefetcherKind k : {PrefetcherKind::None, PrefetcherKind::Stride,
                             PrefetcherKind::Rnr}) {
        cfg.prefetcher = k;
        runExperimentUncached(cfg);
    }
    EXPECT_EQ(store.captures(), 1u);
    EXPECT_EQ(store.hits(), 2u);

    // Warm process (same corpus, fresh counters): zero captures.
    TraceStore::instance().resetForTest();
    for (PrefetcherKind k : {PrefetcherKind::None, PrefetcherKind::Stride,
                             PrefetcherKind::Rnr}) {
        cfg.prefetcher = k;
        runExperimentUncached(cfg);
    }
    EXPECT_EQ(store.captures(), 0u);
    EXPECT_EQ(store.hits(), 3u);

    // A different workload is a different entry.
    cfg.input = "urand";
    cfg.prefetcher = PrefetcherKind::None;
    runExperimentUncached(cfg);
    EXPECT_EQ(store.captures(), 1u);
}

TEST_F(TraceReplayHarnessTest, CorruptEntryIsRecapturedTransparently)
{
    TraceStore &store = TraceStore::instance();
    ExperimentConfig cfg;
    cfg.app = "jacobi";
    cfg.input = "bbmat";
    cfg.iterations = 2;

    const ExperimentResult first = runExperimentUncached(cfg);
    EXPECT_EQ(store.captures(), 1u);

    // Truncate one stored trace; the next run must quarantine the
    // entry, recapture, and still produce the identical result.
    TraceStore::Entry entry;
    ASSERT_EQ(store.acquire(cfg.workloadKey(), entry),
              TraceStore::Acquire::Hit);
    const std::string victim = entry.tracePath(0, 0);
    fs::resize_file(victim, fs::file_size(victim) / 3);

    const ExperimentResult again = runExperimentUncached(cfg);
    EXPECT_GE(store.corruptEntries(), 1u);
    EXPECT_EQ(store.captures(), 2u);
    expectSameResult(again, first, "recaptured vs original");
}

TEST_F(TraceReplayHarnessTest, TraceFileRunsAsAWorkload)
{
    // Synthesise a strided trace (what `trace_tools convert` produces
    // from a ChampSim capture: loads/stores only, no control records),
    // then run it through the full harness as app "tracefile".
    TraceBuffer buf;
    for (unsigned i = 0; i < 4096; ++i)
        buf.push(TraceRecord::load(0x100000 + 64 * (i % 1024),
                                   7 + (i % 3), 2));
    const std::string path =
        (fs::path(root_) / "imported.rnrt").string();
    fs::create_directories(root_);
    ASSERT_TRUE(bool(writeTraceFileV2(path, buf)));

    EXPECT_EQ(TraceFileWorkload::detectCores(path), 1u);

    ExperimentConfig cfg;
    cfg.app = "tracefile";
    cfg.input = path;
    cfg.cores = 1;
    cfg.iterations = 2;
    cfg.prefetcher = PrefetcherKind::Rnr;
    const ExperimentResult r = runExperimentUncached(cfg);

    ASSERT_EQ(r.iterations.size(), 2u);
    for (const IterStats &it : r.iterations) {
        EXPECT_GT(it.cycles, 0u);
        EXPECT_GT(it.instructions, 0u);
        EXPECT_GT(it.l2_accesses, 0u);
    }
    // Iteration 0 records, iteration 1 replays: RnR must have issued
    // prefetches against the file's own address stream.
    EXPECT_GT(r.first().rnr_recorded, 0u);
    EXPECT_GT(r.steady().pf_issued, 0u);

    // The tracefile app bypasses the store (it IS a trace already).
    EXPECT_EQ(TraceStore::instance().captures(), 0u);
}

TEST_F(TraceReplayHarnessTest, StreamedTraceFileMatchesMaterializedRun)
{
    // Three blocks and a partial one per core, so every iteration
    // crosses block boundaries mid-interleave.
    const ExperimentConfig cfg = tracefileCell(writeFourCoreFiles(15000));
    const ExperimentResult streamed = runExperimentUncached(cfg);
    const ExperimentResult reference = materializedTraceFileRun(cfg);

    expectSameResult(streamed, reference, "streamed vs materialised");
    EXPECT_GT(streamed.seq_table_bytes, 0u);
    EXPECT_GT(streamed.steady().pf_issued, 0u);
    EXPECT_EQ(TraceStore::instance().captures(), 0u);
}

TEST_F(TraceReplayHarnessTest, TraceFileDecodeErrorNamesTheFile)
{
    const ExperimentConfig cfg = tracefileCell(writeFourCoreFiles(15000));
    const std::string victim = cfg.input + ".c2.rnrt";
    const std::string saved = root_ + "/saved.rnrt";
    fs::copy_file(victim, saved);

    // A block header that lies, footer intact: the workload constructs
    // and the error surfaces mid-stream, after iteration 0's first block.
    TraceFileStats stats;
    std::vector<TraceBlockIndexEntry> index;
    ASSERT_TRUE(bool(readTraceFileV2Stats(victim, stats, &index)));
    ASSERT_GE(index.size(), 2u);
    {
        std::fstream f(victim,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(index[1].offset + 4));
        const std::uint32_t lie = ~std::uint32_t{0};
        f.write(reinterpret_cast<const char *>(&lie), sizeof(lie));
    }
    expectErrorNaming([&] { runExperimentUncached(cfg); }, victim);

    // Truncated: the file is the user's, so nothing is quarantined or
    // retried behind their back; the cell fails naming it.
    fs::copy_file(saved, victim, fs::copy_options::overwrite_existing);
    fs::resize_file(victim, fs::file_size(victim) / 3);
    expectErrorNaming([&] { runExperimentUncached(cfg); }, victim);

    // The cached entry point must not leave the failed key in flight:
    // once the file is restored, the same key simulates.
    expectErrorNaming([&] { runExperiment(cfg); }, victim);
    fs::copy_file(saved, victim, fs::copy_options::overwrite_existing);
    bool cached = true;
    const ExperimentResult healed = runExperiment(cfg, &cached);
    EXPECT_FALSE(cached);
    expectSameResult(healed, materializedTraceFileRun(cfg),
                     "retry vs materialised");
}

TEST_F(TraceReplayHarnessTest, WorkloadKeyExcludesSimulationDimensions)
{
    ExperimentConfig a;
    a.app = "pagerank";
    a.input = "amazon";
    ExperimentConfig b = a;

    b.prefetcher = PrefetcherKind::Rnr;
    b.ideal_llc = true;
    EXPECT_EQ(a.workloadKey(), b.workloadKey());
    EXPECT_NE(a.key(), b.key());

    // Dimensions that change the emitted trace must change the key.
    b = a;
    b.window_size = 128;
    EXPECT_NE(a.workloadKey(), b.workloadKey());
    b = a;
    b.iterations += 1;
    EXPECT_NE(a.workloadKey(), b.workloadKey());
    b = a;
    b.cores += 1;
    EXPECT_NE(a.workloadKey(), b.workloadKey());
    b = a;
    b.input = "u14";
    EXPECT_NE(a.workloadKey(), b.workloadKey());
}

} // namespace
} // namespace rnr
