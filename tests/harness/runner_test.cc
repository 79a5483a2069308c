#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/system.h"
#include "harness/json_parse.h"
#include "harness/runner.h"
#include "harness/system_counters.h"
#include "sim/attrib.h"
#include "sim/timeseries.h"
#include "trace/trace_buffer.h"
#include "tracestore/trace_codec.h"

namespace rnr {
namespace {

/** String-keyed reimplementation of the counter snapshot, kept
 *  deliberately independent of the X-macro so the test can catch a
 *  field wired to the wrong handle. */
IterStats
stringSnapshot(System &sys)
{
    const auto sum_l2 = [&sys](const std::string &key) {
        std::uint64_t total = 0;
        for (unsigned c = 0; c < sys.coreCount(); ++c)
            total += sys.mem().l2(c).stats().get(key);
        return total;
    };
    const auto sum_rnr = [&sys](const std::string &key) {
        std::uint64_t total = 0;
        for (unsigned c = 0; c < sys.coreCount(); ++c)
            if (RnrPrefetcher *r = asRnr(sys.mem().prefetcher(c)))
                total += r->stats().get(key);
        return total;
    };
    IterStats s;
    s.l2_accesses = sum_l2("accesses");
    s.l2_demand_misses = sum_l2("misses") - sum_l2("mshr_merges");
    s.pf_issued = sum_l2("prefetches_issued");
    s.pf_useful = sum_l2("prefetch_useful");
    s.pf_late_merged = sum_l2("demand_merged_into_prefetch");
    const StatGroup &d = sys.mem().dram().stats();
    s.dram_bytes_total = d.get("bytes_total");
    s.dram_bytes_demand = d.get("bytes_demand");
    s.dram_bytes_prefetch = d.get("bytes_prefetch");
    s.dram_bytes_metadata = d.get("bytes_metadata");
    s.dram_bytes_writeback = d.get("bytes_writeback");
    s.rnr_ontime = sum_rnr("pf_ontime");
    s.rnr_early = sum_rnr("pf_early");
    s.rnr_late = sum_rnr("pf_late");
    s.rnr_out_of_window = sum_rnr("pf_out_of_window");
    s.rnr_recorded = sum_rnr("recorded_misses");
    return s;
}

struct RunnerFixture : ::testing::Test {
    static void
    SetUpTestSuite()
    {
        // Keep tests hermetic: no file-cache reads or writes.
        setenv("RNR_CACHE", "0", 1);
    }
};

TEST_F(RunnerFixture, ConfigKeyDistinguishesDimensions)
{
    ExperimentConfig a, b;
    EXPECT_EQ(a.key(), b.key());
    b.prefetcher = PrefetcherKind::Rnr;
    EXPECT_NE(a.key(), b.key());
    b = a;
    b.window_size = 128;
    EXPECT_NE(a.key(), b.key());
    b = a;
    b.ideal_llc = true;
    EXPECT_NE(a.key(), b.key());
}

TEST_F(RunnerFixture, MakeWorkloadKnowsAllApps)
{
    for (const char *app : {"pagerank", "hyperanf"}) {
        ExperimentConfig cfg;
        cfg.app = app;
        cfg.input = "amazon";
        EXPECT_NE(makeWorkload(cfg), nullptr) << app;
    }
    ExperimentConfig cg;
    cg.app = "spcg";
    cg.input = "pdb1HYS";
    EXPECT_NE(makeWorkload(cg), nullptr);
}

TEST_F(RunnerFixture, UnknownAppThrows)
{
    ExperimentConfig cfg;
    cfg.app = "bogus";
    EXPECT_THROW(makeWorkload(cfg), std::invalid_argument);
}

TEST_F(RunnerFixture, ExperimentProducesPerIterationStats)
{
    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.iterations = 2;
    const ExperimentResult r = runExperiment(cfg);
    ASSERT_EQ(r.iterations.size(), 2u);
    for (const IterStats &it : r.iterations) {
        EXPECT_GT(it.cycles, 0u);
        EXPECT_GT(it.instructions, 0u);
        EXPECT_GT(it.l2_accesses, 0u);
        EXPECT_GT(it.dram_bytes_total, 0u);
    }
    EXPECT_GT(r.input_bytes, 0u);
    EXPECT_GT(r.target_bytes, 0u);
}

TEST_F(RunnerFixture, InProcessCacheReturnsIdenticalResult)
{
    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.iterations = 2;
    const ExperimentResult a = runExperiment(cfg);
    const ExperimentResult b = runExperiment(cfg);
    ASSERT_EQ(a.iterations.size(), b.iterations.size());
    EXPECT_EQ(a.steady().cycles, b.steady().cycles);
    EXPECT_EQ(a.steady().l2_demand_misses, b.steady().l2_demand_misses);
}

TEST_F(RunnerFixture, RnrRunRecordsMetadata)
{
    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.iterations = 2;
    cfg.prefetcher = PrefetcherKind::Rnr;
    const ExperimentResult r = runExperiment(cfg);
    EXPECT_GT(r.seq_table_bytes, 0u);
    EXPECT_GT(r.div_table_bytes, 0u);
    EXPECT_GT(r.first().rnr_recorded, 0u);
    EXPECT_GT(r.steady().pf_issued, 0u);
}

TEST_F(RunnerFixture, BothProbesAtOnceLeaveCountersBitIdentical)
{
    // The plain run must build no probe of its own from the environment.
    unsetenv("RNR_OBS");
    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.iterations = 2;
    cfg.cores = 2;
    cfg.prefetcher = PrefetcherKind::Rnr;
    const ExperimentResult plain = runExperimentUncached(cfg);

    TelemetrySampler tm(512);
    AttribCollector at;
    const ExperimentResult probed =
        runExperimentUncached(cfg, {.telemetry = &tm, .attrib = &at});

    ASSERT_EQ(plain.iterations.size(), probed.iterations.size());
    for (std::size_t i = 0; i < plain.iterations.size(); ++i) {
#define RNR_CHECK_FIELD(type, name)                                          \
    EXPECT_EQ(plain.iterations[i].name, probed.iterations[i].name)           \
        << "field " #name " iteration " << i;
        RNR_ITER_STAT_FIELDS(RNR_CHECK_FIELD)
#undef RNR_CHECK_FIELD
    }
    EXPECT_EQ(plain.seq_table_bytes, probed.seq_table_bytes);
    EXPECT_EQ(plain.div_table_bytes, probed.div_table_bytes);

    // Each instrument harvested something; the plain run carries none.
    ASSERT_NE(probed.telemetry, nullptr);
    EXPECT_GT(probed.telemetry->samples_taken, 0u);
    EXPECT_FALSE(probed.telemetry->series.empty());
    ASSERT_NE(probed.attrib, nullptr);
    EXPECT_GT(probed.attrib->totals.issued, 0u);
    EXPECT_FALSE(probed.attrib->sites.empty());
    EXPECT_FALSE(probed.attrib->windows.empty());
    EXPECT_EQ(plain.telemetry, nullptr);
    EXPECT_EQ(plain.attrib, nullptr);
}

TEST(ObsSwitchTest, EmptyIsOffEachTokenTurnsOnItsProbeUnknownWarnsOnce)
{
    unsetenv("RNR_OBS_OUT");
    for (const char *off : {static_cast<const char *>(nullptr), "", ","}) {
        if (off)
            setenv("RNR_OBS", off, 1);
        else
            unsetenv("RNR_OBS");
        const ObsSwitch o = obsSwitch();
        EXPECT_FALSE(o.telemetry || o.attrib) << (off ? off : "(unset)");
        EXPECT_EQ(o.out, "rnr_obs");
    }

    setenv("RNR_OBS", "telemetry", 1);
    ObsSwitch o = obsSwitch();
    EXPECT_TRUE(o.telemetry && !o.attrib);
    setenv("RNR_OBS", "attrib", 1);
    o = obsSwitch();
    EXPECT_TRUE(!o.telemetry && o.attrib);
    setenv("RNR_OBS", "attrib,telemetry", 1);
    setenv("RNR_OBS_OUT", "some/prefix", 1);
    o = obsSwitch();
    EXPECT_TRUE(o.telemetry && o.attrib);
    EXPECT_EQ(o.out, "some/prefix");
    unsetenv("RNR_OBS_OUT");

    // An unknown token is ignored, with one warning however often the
    // same value is parsed (a sweep parses it once per cell).  `trace`
    // is one: the event trace is gone.
    const std::pair<const char *, const char *> cases[] = {
        {"telemetry,tracing", "tracing"}, {"trace,telemetry", "trace"}};
    for (const auto &[bad, token] : cases) {
        setenv("RNR_OBS", bad, 1);
        ::testing::internal::CaptureStderr();
        o = obsSwitch();
        obsSwitch();
        const std::string err = ::testing::internal::GetCapturedStderr();
        unsetenv("RNR_OBS");
        EXPECT_TRUE(o.telemetry && !o.attrib) << bad;
        std::size_t warnings = 0;
        for (std::size_t at = err.find("rnr: warning:");
             at != std::string::npos;
             at = err.find("rnr: warning:", at + 1))
            ++warnings;
        EXPECT_EQ(warnings, 1u) << err;
        EXPECT_NE(err.find(std::string("ignoring unknown ") + token + " "),
                  std::string::npos)
            << err;
        EXPECT_NE(err.find("(known: telemetry, attrib)"), std::string::npos)
            << err;
    }
}

TEST_F(RunnerFixture, ObsSwitchWritesEveryProbeItBuiltUnderThePrefix)
{
    const std::string prefix = ::testing::TempDir() + "runner_obs";
    setenv("RNR_OBS", "telemetry,attrib", 1);
    setenv("RNR_OBS_OUT", prefix.c_str(), 1);
    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.iterations = 2;
    cfg.cores = 2;
    cfg.prefetcher = PrefetcherKind::Rnr;
    const ExperimentResult r = runExperimentUncached(cfg);
    unsetenv("RNR_OBS");
    unsetenv("RNR_OBS_OUT");

    ASSERT_NE(r.telemetry, nullptr);
    ASSERT_NE(r.attrib, nullptr);
    // Null-safe member path into a parsed document.
    const auto at = [](const JsonValue &v,
                       std::initializer_list<const char *> path) {
        const JsonValue *p = &v;
        for (const char *key : path)
            if (p && !(p = p->find(key)))
                break;
        return p;
    };
    JsonValue explain;
    std::string error;
    ASSERT_TRUE(parseJsonFile(prefix + ".explain.json", explain, &error))
        << error;
    ASSERT_NE(at(explain, {"schema"}), nullptr);
    EXPECT_EQ(at(explain, {"schema"})->text, "rnr-explain-v2");
    ASSERT_NE(at(explain, {"cell", "key"}), nullptr);
    EXPECT_EQ(at(explain, {"cell", "key"})->text, cfg.key());
    ASSERT_NE(explain.find("baseline"), nullptr);
    EXPECT_TRUE(explain.find("baseline")->isNull());
    const JsonValue *series = at(explain, {"telemetry", "series"});
    ASSERT_NE(series, nullptr);
    EXPECT_FALSE(series->items.empty());
    const JsonValue *issued = at(explain, {"attrib", "totals", "issued"});
    ASSERT_NE(issued, nullptr);
    EXPECT_EQ(issued->asU64(), r.attrib->totals.issued);
    EXPECT_GT(issued->asU64(), 0u);
    const JsonValue *rows = at(explain, {"windows", "rows"});
    ASSERT_NE(rows, nullptr);
    EXPECT_FALSE(rows->items.empty());
    std::remove((prefix + ".explain.json").c_str());
}

TEST_F(RunnerFixture, ObsAttribAloneWritesTheWindowTableAndNoEventTrace)
{
    namespace fs = std::filesystem;
    const std::string dir = ::testing::TempDir() + "runner_obs_attrib";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string prefix = dir + "/obs";
    setenv("RNR_OBS", "attrib", 1);
    setenv("RNR_OBS_OUT", prefix.c_str(), 1);
    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.iterations = 2;
    cfg.cores = 1;
    cfg.prefetcher = PrefetcherKind::Rnr;
    const ExperimentResult r = runExperimentUncached(cfg);
    unsetenv("RNR_OBS");
    unsetenv("RNR_OBS_OUT");

    EXPECT_EQ(r.telemetry, nullptr);
    ASSERT_NE(r.attrib, nullptr);
    // The explain document is the one file written.
    std::vector<std::string> written;
    for (const auto &e : fs::directory_iterator(dir))
        written.push_back(e.path().filename().string());
    EXPECT_EQ(written, std::vector<std::string>{"obs.explain.json"});
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJsonFile(prefix + ".explain.json", doc, &error))
        << error;
    ASSERT_NE(doc.find("telemetry"), nullptr);
    EXPECT_TRUE(doc.find("telemetry")->isNull());
    const JsonValue *windows = doc.find("windows");
    ASSERT_NE(windows, nullptr);
    const JsonValue *rows = windows->find("rows");
    ASSERT_NE(rows, nullptr);
    EXPECT_FALSE(rows->items.empty());
    EXPECT_EQ(rows->items.size(), r.attrib->windows.size());
    fs::remove_all(dir);
}

TEST_F(RunnerFixture, ObsExplainEscapesATracefilePathWithQuotes)
{
    // A tracefile cell's input is a path, and a path may hold `"` and
    // `\`; the document must still parse and give the path back.
    namespace fs = std::filesystem;
    const std::string dir = ::testing::TempDir() + "obs \"q\" \\ dir";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = dir + "/tiny.rnrt";
    TraceBuffer buf;
    for (unsigned i = 0; i < 512; ++i)
        buf.push(TraceRecord::load(0x100000 + 64 * (i % 128), 7, 2));
    ASSERT_TRUE(bool(writeTraceFileV2(path, buf)));

    const std::string prefix = ::testing::TempDir() + "runner_obs_quoted";
    setenv("RNR_OBS", "telemetry,attrib", 1);
    setenv("RNR_OBS_OUT", prefix.c_str(), 1);
    ExperimentConfig cfg;
    cfg.app = "tracefile";
    cfg.input = path;
    cfg.cores = 1;
    cfg.iterations = 2;
    cfg.prefetcher = PrefetcherKind::Rnr;
    runExperimentUncached(cfg);
    unsetenv("RNR_OBS");
    unsetenv("RNR_OBS_OUT");

    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJsonFile(prefix + ".explain.json", doc, &error))
        << error;
    const JsonValue *input = doc.find("cell");
    if (input)
        input = input->find("config");
    if (input)
        input = input->find("input");
    ASSERT_NE(input, nullptr);
    EXPECT_EQ(input->text, path);
    std::remove((prefix + ".explain.json").c_str());
    fs::remove_all(dir);
}

TEST_F(RunnerFixture, TypedDeltaMatchesHandComputedStringDelta)
{
    // 2-iteration spcg run with RnR: record pass then replay pass, so
    // every field of the snapshot (including the timeliness taxonomy)
    // sees non-zero traffic.
    ExperimentConfig cfg;
    cfg.app = "spcg";
    cfg.input = "pdb1HYS";
    cfg.iterations = 2;
    cfg.prefetcher = PrefetcherKind::Rnr;

    MachineConfig mcfg = MachineConfig::scaledDefault();
    mcfg.cores = cfg.cores;
    System sys(mcfg);
    std::unique_ptr<Workload> wl = makeWorkload(cfg);
    std::vector<std::unique_ptr<Prefetcher>> pfs;
    for (unsigned c = 0; c < cfg.cores; ++c) {
        pfs.push_back(createPrefetcher(cfg.prefetcher, {}));
        pfs.back()->configureFor(*wl, c);
        sys.mem().setPrefetcher(c, pfs.back().get());
    }

    std::vector<TraceBuffer> bufs(cfg.cores);
    SystemCounters typed_before = SystemCounters::capture(sys);
    IterStats hand_before = stringSnapshot(sys);
    for (unsigned iter = 0; iter < cfg.iterations; ++iter) {
        wl->emitIteration(iter, iter + 1 == cfg.iterations, bufs);
        std::vector<const TraceBuffer *> ptrs;
        for (auto &b : bufs)
            ptrs.push_back(&b);
        sys.run(ptrs);

        const SystemCounters typed_after = SystemCounters::capture(sys);
        const IterStats typed = typed_after.delta(typed_before);
        const IterStats hand_after = stringSnapshot(sys);

        EXPECT_EQ(typed.l2_accesses,
                  hand_after.l2_accesses - hand_before.l2_accesses);
        EXPECT_EQ(typed.l2_demand_misses,
                  hand_after.l2_demand_misses - hand_before.l2_demand_misses);
        EXPECT_EQ(typed.pf_issued,
                  hand_after.pf_issued - hand_before.pf_issued);
        EXPECT_EQ(typed.pf_useful,
                  hand_after.pf_useful - hand_before.pf_useful);
        EXPECT_EQ(typed.pf_late_merged,
                  hand_after.pf_late_merged - hand_before.pf_late_merged);
        EXPECT_EQ(typed.dram_bytes_total,
                  hand_after.dram_bytes_total - hand_before.dram_bytes_total);
        EXPECT_EQ(typed.dram_bytes_demand,
                  hand_after.dram_bytes_demand -
                      hand_before.dram_bytes_demand);
        EXPECT_EQ(typed.dram_bytes_prefetch,
                  hand_after.dram_bytes_prefetch -
                      hand_before.dram_bytes_prefetch);
        EXPECT_EQ(typed.dram_bytes_metadata,
                  hand_after.dram_bytes_metadata -
                      hand_before.dram_bytes_metadata);
        EXPECT_EQ(typed.dram_bytes_writeback,
                  hand_after.dram_bytes_writeback -
                      hand_before.dram_bytes_writeback);
        EXPECT_EQ(typed.rnr_ontime,
                  hand_after.rnr_ontime - hand_before.rnr_ontime);
        EXPECT_EQ(typed.rnr_early,
                  hand_after.rnr_early - hand_before.rnr_early);
        EXPECT_EQ(typed.rnr_late,
                  hand_after.rnr_late - hand_before.rnr_late);
        EXPECT_EQ(typed.rnr_out_of_window,
                  hand_after.rnr_out_of_window -
                      hand_before.rnr_out_of_window);
        EXPECT_EQ(typed.rnr_recorded,
                  hand_after.rnr_recorded - hand_before.rnr_recorded);

        // The run must actually exercise the counters being compared.
        EXPECT_GT(typed.l2_accesses, 0u);
        EXPECT_GT(typed.dram_bytes_total, 0u);
        if (iter == 0)
            EXPECT_GT(typed.rnr_recorded, 0u);
        else
            EXPECT_GT(typed.pf_issued, 0u);

        typed_before = typed_after;
        hand_before = hand_after;
    }
}

TEST_F(RunnerFixture, RunBaselineStripsPrefetcher)
{
    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.iterations = 2;
    cfg.prefetcher = PrefetcherKind::Rnr;
    const ExperimentResult base = runBaseline(cfg);
    EXPECT_EQ(base.config.prefetcher, PrefetcherKind::None);
    EXPECT_EQ(base.steady().pf_issued, 0u);
}

} // namespace
} // namespace rnr
