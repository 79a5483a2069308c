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
 *  - `report` writes a parseable rnr-report-v2 JSON plus an HTML page
 *    with inline SVG (the full telemetry pipeline, out of process);
 *  - `attrib` prints exactly one rnr-attrib-v1 JSON line on stdout and
 *    exits 0 only when the attribution totals reconciled with the
 *    IterStats counters;
 *  - `sweep` with an unknown prefetcher prints one line and exits 2.
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/blob_store.h"

#ifndef RNR_TRACE_TOOLS_BIN
#error "RNR_TRACE_TOOLS_BIN must point at the trace_tools binary"
#endif

namespace {

struct CliResult {
    int exit_code = -1;
    std::string output; ///< stdout + stderr, interleaved.
};

/** Runs @p args under the trace_tools binary with quiet harness env;
 *  @p extra_env prepends additional VAR=value pairs. */
CliResult
runTool(const std::string &args, const std::string &extra_env = "")
{
    const std::string cmd =
        "RNR_CACHE=0 RNR_TRACE_STORE=0 RNR_PROGRESS=0 " + extra_env +
        (extra_env.empty() ? "" : " ") +
        std::string(RNR_TRACE_TOOLS_BIN) + " " + args + " 2>&1";
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

const char *const kModes[] = {"capture",  "convert",   "simulate",
                              "stats",    "corpus",    "ckpt",
                              "gc",       "inspect",   "rnr-trace",
                              "attrib",   "report",    "help"};

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
    EXPECT_EQ(runTool("ckpt").exit_code, 2);         // needs a subcommand
    EXPECT_EQ(runTool("ckpt inspect").exit_code, 2); // needs a file
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

/** Writes a minimal valid (or checksum-broken) snapshot to @p path. */
void
writeTestSnapshot(const std::string &path, bool corrupt)
{
    const std::string payload = "tiny snapshot payload";
    std::vector<std::uint8_t> blob = rnr::BlobStore::encode(
        "input:graph:urand:g1", payload.data(), payload.size());
    if (corrupt)
        blob[blob.size() / 2] ^= 0x01;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
}

TEST(TraceToolsCli, CkptInspectDecodesSnapshotHeader)
{
    const std::string path =
        ::testing::TempDir() + "trace_tools_cli_inspect.ckpt";
    writeTestSnapshot(path, /*corrupt=*/false);

    const CliResult r = runTool("ckpt inspect " + path);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("rnr blob"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("|input:graph:urand:g1"), std::string::npos);
    EXPECT_NE(r.output.find("payload: 21 bytes"), std::string::npos);
    // The printed checksum is the real field, not a zeroed one.
    EXPECT_NE(r.output.find("checksum 0x"), std::string::npos);
    EXPECT_EQ(r.output.find("checksum 0x0000000000000000"),
              std::string::npos);

    // A corrupt snapshot is a typed one-liner + exit 1.
    writeTestSnapshot(path, /*corrupt=*/true);
    const CliResult bad = runTool("ckpt inspect " + path);
    EXPECT_EQ(bad.exit_code, 1) << bad.output;
    EXPECT_NE(bad.output.find("cannot inspect"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TraceToolsCli, CkptListAndGcSweepTheStore)
{
    namespace fs = std::filesystem;
    const std::string dir =
        ::testing::TempDir() + "trace_tools_cli_ckpt_store";
    fs::remove_all(dir);
    fs::create_directories(dir + "/ckpt");
    // gc sweeps every store: point all three into the scratch tree.
    const std::string env = "RNR_CKPT_DIR=" + dir + "/ckpt RNR_TRACE_DIR=" +
                            dir + "/traces RNR_CACHE_FILE=" + dir +
                            "/results";

    writeTestSnapshot(dir + "/ckpt/good.ckpt", /*corrupt=*/false);
    writeTestSnapshot(dir + "/ckpt/bad.ckpt", /*corrupt=*/true);
    { // a stale publish temp file (crashed before its rename)
        std::ofstream out(dir + "/ckpt/old.ckpt.tmp.999");
        out << "partial";
    }

    const CliResult list = runTool("ckpt list", env);
    EXPECT_EQ(list.exit_code, 0) << list.output;
    EXPECT_NE(list.output.find("2 snapshots"), std::string::npos)
        << list.output;
    EXPECT_NE(list.output.find("CORRUPT"), std::string::npos);

    const CliResult gc = runTool("gc", env);
    EXPECT_EQ(gc.exit_code, 0) << gc.output;
    EXPECT_NE(gc.output.find("snapshots gc at " + dir +
                             "/ckpt: removed 1 corrupt, 1 stale"),
              std::string::npos)
        << gc.output;
    EXPECT_TRUE(fs::exists(dir + "/ckpt/good.ckpt"));
    EXPECT_FALSE(fs::exists(dir + "/ckpt/bad.ckpt"));
    EXPECT_FALSE(fs::exists(dir + "/ckpt/old.ckpt.tmp.999"));

    const CliResult after = runTool("ckpt list", env);
    EXPECT_NE(after.output.find("1 snapshot"), std::string::npos)
        << after.output;
    fs::remove_all(dir);
}

TEST(TraceToolsCli, ReportModeWritesJsonAndHtml)
{
    const std::string prefix =
        ::testing::TempDir() + "trace_tools_cli_report";
    std::remove((prefix + ".json").c_str());
    std::remove((prefix + ".html").c_str());

    const CliResult r = runTool(
        "report pagerank urand " + prefix +
        " --sample-cycles 4096 --iterations 2 --cores 2");
    ASSERT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("wrote"), std::string::npos);

    std::ifstream json(prefix + ".json");
    ASSERT_TRUE(json.good()) << prefix << ".json missing";
    std::stringstream jbuf;
    jbuf << json.rdbuf();
    const std::string jbody = jbuf.str();
    EXPECT_NE(jbody.find("rnr-report-v2"), std::string::npos);
    EXPECT_NE(jbody.find("n_pace"), std::string::npos);
    EXPECT_NE(jbody.find("seq_buffer_bytes"), std::string::npos);
    EXPECT_NE(jbody.find("rnr-attrib-v1"), std::string::npos);

    std::ifstream html(prefix + ".html");
    ASSERT_TRUE(html.good()) << prefix << ".html missing";
    std::stringstream hbuf;
    hbuf << html.rdbuf();
    EXPECT_NE(hbuf.str().find("<svg"), std::string::npos);
    EXPECT_NE(hbuf.str().find("class=\"attrib-sites\""),
              std::string::npos);
    EXPECT_NE(hbuf.str().find("class=\"heatmap\""), std::string::npos);

    std::remove((prefix + ".json").c_str());
    std::remove((prefix + ".html").c_str());
}

TEST(TraceToolsCli, AttribModeEmitsOneReconciledJsonLine)
{
    // stdout is the machine-readable surface (one rnr-attrib-v1 line);
    // the human-facing reconciliation verdict goes to stderr.  runTool
    // merges the two streams, so split on lines and find the JSON one.
    const CliResult r =
        runTool("attrib pagerank amazon rnr --iterations 2 --cores 2");
    ASSERT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("attrib/counter reconciliation: exact"),
              std::string::npos)
        << r.output;

    std::istringstream lines(r.output);
    std::string line, json;
    std::size_t json_lines = 0;
    while (std::getline(lines, line)) {
        if (line.rfind("{\"schema\": \"rnr-attrib-v1\"", 0) == 0) {
            json = line;
            ++json_lines;
        }
    }
    ASSERT_EQ(json_lines, 1u) << r.output;

    // Golden schema: every top-level key of the rnr-attrib-v1 object,
    // in emission order.
    std::size_t pos = 0;
    for (const char *key :
         {"\"schema\"", "\"totals\"", "\"rnr\"", "\"pollution_filter\"",
          "\"sites\"", "\"sites_tracked\"", "\"site_other\"",
          "\"regions\"", "\"regions_tracked\"", "\"region_other\"",
          "\"windows\"", "\"window_overflow\""}) {
        const std::size_t at = json.find(key, pos);
        ASSERT_NE(at, std::string::npos) << key << " in " << json;
        pos = at;
    }
    // An RnR run attributes its replay lane: lane sites carry bit 31.
    EXPECT_NE(json.find("\"rnr\": true"), std::string::npos) << json;
}

TEST(TraceToolsCli, AttribModeWrongArityExitsTwo)
{
    EXPECT_EQ(runTool("attrib pagerank amazon rnr --iterations").exit_code,
              2);
    EXPECT_EQ(runTool("attrib pagerank amazon nosuchpf").exit_code, 2);
}

} // namespace
