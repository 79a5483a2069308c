/**
 * @file
 * End-to-end CLI tests for the trace_tools binary, driven over popen.
 * The binary path is injected by CMake as RNR_TRACE_TOOLS_BIN
 * ($<TARGET_FILE:trace_tools>), so these tests exercise the real
 * executable exactly as a user would:
 *
 *  - `help` lists every mode and exits 0;
 *  - `help <mode>` and `<mode> --help` work for every registered mode;
 *  - unknown modes print usage to stderr and exit 2, as does no mode;
 *  - `help --markdown` emits the registry-generated mode table and the
 *    copy embedded in README.md matches it byte-for-byte (README path
 *    injected as RNR_README_PATH);
 *  - `explain` prints exactly one rnr-explain-v2 document on stdout
 *    and exits 0 when the attribution and window totals reconciled
 *    with the IterStats counters; bad usage and an unknown prefetcher
 *    exit 2;
 *  - `sweep` with an unknown prefetcher prints one line and exits 2;
 *  - `simulate` runs RnR through a trace file whose own control records
 *    would leave the window size 0 (WindowSize.set(0), a size that
 *    does not fit 32 bits, or a Start after Free with no Init).
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/blob_store.h"
#include "harness/json_parse.h"
#include "trace/trace_buffer.h"
#include "tracestore/trace_codec.h"

#ifndef RNR_TRACE_TOOLS_BIN
#error "RNR_TRACE_TOOLS_BIN must point at the trace_tools binary"
#endif

namespace {

struct CliResult {
    int exit_code = -1;
    std::string output; ///< stdout, plus stderr interleaved if asked.
};

/** Runs @p args under the trace_tools binary with quiet harness env;
 *  @p extra_env prepends additional VAR=value pairs.  Without
 *  @p with_stderr only stdout is captured (stderr is dropped). */
CliResult
runTool(const std::string &args, const std::string &extra_env = "",
        bool with_stderr = true)
{
    const std::string cmd =
        "RNR_CACHE=0 RNR_TRACE_STORE=0 RNR_PROGRESS=0 " + extra_env +
        (extra_env.empty() ? "" : " ") +
        std::string(RNR_TRACE_TOOLS_BIN) + " " + args +
        (with_stderr ? " 2>&1" : " 2>/dev/null");
    CliResult r;
    std::FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return r;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        r.output.append(buf, n);
    const int status = pclose(pipe);
    if (WIFEXITED(status))
        r.exit_code = WEXITSTATUS(status);
    return r;
}

const char *const kModes[] = {"capture", "convert", "simulate", "stats",
                              "corpus",  "gc",      "inspect",  "explain",
                              "sweep",   "help"};

TEST(TraceToolsCli, HelpListsEveryMode)
{
    const CliResult r = runTool("help");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    for (const char *mode : kModes)
        EXPECT_NE(r.output.find(mode), std::string::npos) << mode;
}

TEST(TraceToolsCli, EveryModeHasHelpText)
{
    for (const char *mode : kModes) {
        const CliResult byword = runTool(std::string("help ") + mode);
        EXPECT_EQ(byword.exit_code, 0) << mode << ": " << byword.output;
        EXPECT_NE(byword.output.find("usage:"), std::string::npos)
            << mode;
        EXPECT_NE(byword.output.find(mode), std::string::npos) << mode;

        const CliResult byflag = runTool(std::string(mode) + " --help");
        EXPECT_EQ(byflag.exit_code, 0) << mode << ": " << byflag.output;
        EXPECT_NE(byflag.output.find("usage:"), std::string::npos)
            << mode;
    }
}

TEST(TraceToolsCli, DashDashHelpAtTopLevel)
{
    EXPECT_EQ(runTool("--help").exit_code, 0);
    EXPECT_EQ(runTool("-h").exit_code, 0);
}

TEST(TraceToolsCli, UnknownModeExitsTwoWithUsage)
{
    const CliResult r = runTool("frobnicate");
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(TraceToolsCli, NoModeExitsTwoWithUsage)
{
    const CliResult r = runTool("");
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(TraceToolsCli, KnownModeWithWrongArityExitsTwo)
{
    EXPECT_EQ(runTool("convert").exit_code, 2);      // needs 2 args
    EXPECT_EQ(runTool("stats").exit_code, 2);        // needs a file
    EXPECT_EQ(runTool("capture onlyone").exit_code, 2);
    EXPECT_EQ(runTool("gc --max-bytes").exit_code, 2); // needs a count
}

TEST(TraceToolsCli, HelpMarkdownEmitsTheModeTable)
{
    const CliResult r = runTool("help --markdown");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_EQ(r.output.rfind("| Mode | Arguments | Description |", 0), 0u)
        << r.output;
    for (const char *mode : kModes)
        EXPECT_NE(r.output.find(std::string("| `") + mode + "` |"),
                  std::string::npos)
            << mode;
}

TEST(TraceToolsCli, HelpMarkdownMatchesReadme)
{
    // README.md embeds the generated table between these markers; if
    // the registry changes, regenerate with:
    //   trace_tools help --markdown
    const std::string begin_marker = "<!-- trace_tools-modes:begin -->\n";
    const std::string end_marker = "<!-- trace_tools-modes:end -->";

    std::ifstream readme(RNR_README_PATH);
    ASSERT_TRUE(readme.good()) << RNR_README_PATH;
    std::stringstream buf;
    buf << readme.rdbuf();
    const std::string body = buf.str();

    const std::size_t begin = body.find(begin_marker);
    ASSERT_NE(begin, std::string::npos)
        << "README.md lost its trace_tools-modes:begin marker";
    const std::size_t start = begin + begin_marker.size();
    const std::size_t end = body.find(end_marker, start);
    ASSERT_NE(end, std::string::npos)
        << "README.md lost its trace_tools-modes:end marker";
    const std::string embedded = body.substr(start, end - start);

    const CliResult r = runTool("help --markdown");
    ASSERT_EQ(r.exit_code, 0) << r.output;
    EXPECT_EQ(embedded, r.output)
        << "README.md mode table is stale; re-run "
           "`trace_tools help --markdown` and paste between the markers";
}

TEST(TraceToolsCli, SweepUnknownPrefetcherExitsTwoWithOneLine)
{
    const CliResult r = runTool("sweep --prefetchers bogus");
    EXPECT_EQ(r.exit_code, 2) << r.output;
    ASSERT_FALSE(r.output.empty());
    EXPECT_EQ(r.output.find('\n'), r.output.size() - 1)
        << "expected exactly one line:\n"
        << r.output;
    EXPECT_NE(r.output.find("bogus"), std::string::npos) << r.output;
}

/** One result-store blob at @p path, bit-flipped when @p corrupt. */
void
writeTestBlob(const std::string &path, bool corrupt)
{
    const std::string payload = "tiny result payload";
    std::vector<std::uint8_t> blob = rnr::BlobStore::encode(
        "pagerank:urand:none", payload.data(), payload.size());
    if (corrupt)
        blob[blob.size() / 2] ^= 0x01;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
}

TEST(TraceToolsCli, GcSweepsBothStores)
{
    namespace fs = std::filesystem;
    const std::string dir = ::testing::TempDir() + "trace_tools_cli_gc";
    fs::remove_all(dir);
    fs::create_directories(dir + "/results");
    fs::create_directories(dir + "/traces");
    // gc sweeps every store: point both into the scratch tree.
    const std::string env = "RNR_TRACE_DIR=" + dir +
                            "/traces RNR_CACHE_FILE=" + dir + "/results";

    writeTestBlob(dir + "/results/good.result", /*corrupt=*/false);
    writeTestBlob(dir + "/results/bad.result", /*corrupt=*/true);
    { // a stale publish temp file (crashed before its rename)
        std::ofstream out(dir + "/results/.tmp.0123456789abcdef.999");
        out << "partial";
    }

    const CliResult gc = runTool("gc", env);
    EXPECT_EQ(gc.exit_code, 0) << gc.output;
    EXPECT_NE(gc.output.find("results gc at " + dir +
                             "/results: removed 1 corrupt, 1 stale"),
              std::string::npos)
        << gc.output;
    EXPECT_NE(gc.output.find("traces gc at " + dir +
                             "/traces: removed 0 corrupt, 0 stale"),
              std::string::npos)
        << gc.output;
    EXPECT_TRUE(fs::exists(dir + "/results/good.result"));
    EXPECT_FALSE(fs::exists(dir + "/results/bad.result"));
    EXPECT_FALSE(fs::exists(dir + "/results/.tmp.0123456789abcdef.999"));
    fs::remove_all(dir);
}

TEST(TraceToolsCli, ExplainModeEmitsOneReconciledDocument)
{
    const CliResult r = runTool(
        "explain pagerank urand rnr --iterations 2 --cores 2", "", false);
    ASSERT_EQ(r.exit_code, 0) << r.output;

    // stdout is one document and nothing else.
    rnr::JsonValue doc;
    std::string error;
    ASSERT_TRUE(rnr::parseJson(r.output, doc, &error))
        << error << "\n" << r.output;
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->text, "rnr-explain-v2");
    for (const char *part : {"cell", "baseline", "metrics", "windows",
                             "attrib", "telemetry"}) {
        ASSERT_NE(doc.find(part), nullptr) << part;
        EXPECT_FALSE(doc.find(part)->isNull()) << part;
    }
    EXPECT_NE(doc.find("metrics")->find("speedup"), nullptr);
    EXPECT_FALSE(doc.find("windows")->find("rows")->items.empty());
}

TEST(TraceToolsCli, ExplainModeWrongArityExitsTwo)
{
    EXPECT_EQ(runTool("explain pagerank amazon rnr --iterations").exit_code,
              2);
    EXPECT_EQ(runTool("explain pagerank amazon rnr extra").exit_code, 2);
}

TEST(TraceToolsCli, ExplainUnknownPrefetcherExitsTwoWithOneLine)
{
    const CliResult r = runTool("explain pagerank amazon nosuchpf");
    EXPECT_EQ(r.exit_code, 2) << r.output;
    ASSERT_FALSE(r.output.empty());
    EXPECT_EQ(r.output.find('\n'), r.output.size() - 1)
        << "expected exactly one line:\n"
        << r.output;
    EXPECT_NE(r.output.find("nosuchpf"), std::string::npos) << r.output;
}

/**
 * A one-core trace file: @p controls, then loads scattered over 4 MiB
 * (far past the L2, so RnR records misses).  The workload wraps the
 * file in Init, AddrBase.set, AddrEnable and Start (a replay from the
 * second iteration on), so @p controls act on a recording RnR.
 */
std::string
writeControlFile(const std::string &name,
                 const std::vector<rnr::TraceRecord> &controls)
{
    constexpr rnr::Addr kBase = 0x10000000;
    rnr::TraceBuffer buf;
    for (const rnr::TraceRecord &c : controls)
        buf.push(c);
    for (std::uint64_t i = 0; i < 50000; ++i)
        buf.push(rnr::TraceRecord::load(kBase + 64 * ((i * 7919) % 65536),
                                        7, 3));
    const std::string path = ::testing::TempDir() + name;
    EXPECT_TRUE(bool(rnr::writeTraceFileV2(path, buf))) << path;
    return path;
}

TEST(TraceToolsCli, SimulateNeverRecordsWithAZeroWindowSize)
{
    using rnr::RnrOp;
    using rnr::TraceRecord;
    constexpr rnr::Addr kBase = 0x10000000;
    const std::pair<const char *, std::vector<TraceRecord>> files[] = {
        {"cli_window_zero.rnrt",
         {TraceRecord::control(RnrOp::WindowSizeSet, 0)}},
        {"cli_window_wraps.rnrt",
         {TraceRecord::control(RnrOp::WindowSizeSet, rnr::Addr{1} << 32)}},
        {"cli_start_after_free.rnrt",
         {TraceRecord::control(RnrOp::Free),
          TraceRecord::control(RnrOp::AddrBaseSet, kBase, 4 << 20),
          TraceRecord::control(RnrOp::AddrEnable, kBase),
          TraceRecord::control(RnrOp::Start)}},
    };
    for (const auto &[name, controls] : files) {
        const std::string path = writeControlFile(name, controls);
        for (const char *pf : {"rnr", "none"}) {
            const CliResult r =
                runTool("simulate " + path + " " + pf + " 2");
            EXPECT_EQ(r.exit_code, 0) << name << " " << pf << "\n"
                                      << r.output;
            EXPECT_NE(r.output.find("iter 1:"), std::string::npos)
                << name << " " << pf << "\n" << r.output;
        }
        std::filesystem::remove(path);
    }
}

} // namespace
