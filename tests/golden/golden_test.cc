/**
 * @file
 * Golden counters: the simulator's absolute results, pinned.
 *
 * tests/data/golden/golden.json holds, for each cell of a 39-cell
 * matrix, every RNR_ITER_STAT_FIELDS field per iteration plus the RnR
 * table bytes, in perfbench's reference.json schema and cell spelling
 * (app:input:pf:control:ideal).  Each cell runs through
 * runExperimentUncached() at the ExperimentConfig defaults (3
 * iterations, 4 cores, default window) with the result cache, the trace
 * store and the checkpoint store off.  A mismatch prints
 * "<cell> iter <i> <field>: golden X, got Y".
 *
 *   golden_test            the cases (ctest label "golden")
 *   golden_test --update   re-simulates the matrix and rewrites the
 *                          file; its only writer (docs/PERF.md §4)
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/json_parse.h"
#include "harness/runner.h"
#include "prefetch/factory.h"

namespace rnr {
namespace {

/** Field -> values: one per iteration, or one for a table field. */
using Counters = std::map<std::string, std::vector<std::uint64_t>>;
/** Cell name -> counters, in the file's sorted order. */
using Doc = std::map<std::string, Counters>;

const std::vector<std::string> kTableFields = {"seq_table_bytes",
                                               "div_table_bytes"};

/** Every field, in the order a cell lists them. */
const std::vector<std::string> &
fieldOrder()
{
    static const std::vector<std::string> fields = {
#define RNR_GOLDEN_NAME(type, name) #name,
        RNR_ITER_STAT_FIELDS(RNR_GOLDEN_NAME)
#undef RNR_GOLDEN_NAME
        kTableFields[0], kTableFields[1]};
    return fields;
}

bool
isTable(const std::string &field)
{
    return std::count(kTableFields.begin(), kTableFields.end(), field) != 0;
}

std::string
appOf(const std::string &cell)
{
    return cell.substr(0, cell.find(':'));
}

std::vector<std::string>
matrix()
{
    std::vector<std::string> cells;
    for (const char *workload : {"pagerank:amazon", "hyperanf:amazon",
                                 "labelprop:amazon", "spcg:atmosmodj",
                                 "jacobi:atmosmodj"})
        for (const char *pf : {"none", "stream", "bingo", "misb", "droplet",
                               "rnr", "rnr-combined"})
            cells.push_back(std::string(workload) + ":" + pf +
                            ":window+pace:0");
    cells.push_back("pagerank:amazon:rnr:none:0");
    cells.push_back("pagerank:amazon:rnr:window:0");
    cells.push_back("pagerank:amazon:none:window+pace:1");
    cells.push_back("spcg:atmosmodj:none:window+pace:1");
    return cells;
}

Counters
simulate(const std::string &cell)
{
    std::vector<std::string> parts;
    std::stringstream in(cell);
    for (std::string part; std::getline(in, part, ':');)
        parts.push_back(part);
    ExperimentConfig cfg;
    if (parts.size() != 5 || !replayControlFromName(parts[3], cfg.control))
        throw std::invalid_argument(cell + ": not app:input:pf:control:ideal");
    cfg.app = parts[0];
    cfg.input = parts[1];
    cfg.prefetcher = prefetcherKindFromString(parts[2]);
    cfg.ideal_llc = parts[4] == "1";

    const ExperimentResult r = runExperimentUncached(cfg);
    Counters c;
#define RNR_GOLDEN_TAKE(type, name)                                         \
    for (const IterStats &it : r.iterations)                                \
        c[#name].push_back(it.name);
    RNR_ITER_STAT_FIELDS(RNR_GOLDEN_TAKE)
#undef RNR_GOLDEN_TAKE
    c["seq_table_bytes"] = {r.seq_table_bytes};
    c["div_table_bytes"] = {r.div_table_bytes};
    return c;
}

/** @p doc byte for byte as perfbench's update_reference writes it. */
std::string
render(const Doc &doc)
{
    std::string out = "{\"schema\": \"perfbench-reference-v1\",\n"
                      " \"cells\": {\n";
    for (const auto &[name, c] : doc) {
        out += (name == doc.begin()->first ? "  \"" : ",\n  \"") + name +
               "\": {";
        for (const std::string &f : fieldOrder()) {
            std::string vals;
            if (c.count(f))
                for (std::uint64_t v : c.at(f))
                    vals += (vals.empty() ? "" : ",") + std::to_string(v);
            out += (f == fieldOrder()[0] ? "\"" : ",\"") + f + "\":" +
                   (isTable(f) ? vals : "[" + vals + "]");
        }
        out += "}";
    }
    return out + "\n },\n \"digests\": {\n\n }}\n";
}

/** The "cells" of a perfbench-reference-v1 document. */
Doc
parseDoc(const std::string &text)
{
    JsonValue root;
    std::string err;
    if (!parseJson(text, root, &err))
        throw std::runtime_error(err);
    const JsonValue *cells = root.find("cells");
    if (!cells || !cells->isObject())
        throw std::runtime_error("no \"cells\" object");
    Doc doc;
    for (const auto &[name, fields] : cells->members)
        for (const auto &[field, value] : fields.members) {
            std::vector<std::uint64_t> &vals = doc[name][field];
            for (const JsonValue &x :
                 value.isArray() ? value.items : std::vector{value})
                vals.push_back(x.asU64());
        }
    return doc;
}

std::string
slurp(const char *path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error(std::string(path) + ": cannot open");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
valueAt(const Counters &c, const std::string &f, std::size_t i)
{
    const auto it = c.find(f);
    return it != c.end() && i < it->second.size()
               ? std::to_string(it->second[i])
               : "absent";
}

/** One line per difference; a value only one side has is one too. */
std::vector<std::string>
diffDocs(const Doc &golden, const Doc &got)
{
    std::vector<std::string> out;
    for (const auto &[name, want] : golden) {
        if (!got.count(name)) {
            out.push_back(name + ": in the golden file, not run");
            continue;
        }
        const Counters &have = got.at(name);
        std::vector<std::string> fields = fieldOrder();
        for (const Counters *c : {&want, &have})
            for (const auto &[f, v] : *c)
                if (!std::count(fields.begin(), fields.end(), f))
                    fields.push_back(f);
        for (const std::string &f : fields) {
            const std::size_t n =
                std::max(want.count(f) ? want.at(f).size() : 0,
                         have.count(f) ? have.at(f).size() : 0);
            for (std::size_t i = 0; i < n; ++i)
                if (valueAt(want, f, i) != valueAt(have, f, i))
                    out.push_back(
                        name +
                        (isTable(f) ? "" : " iter " + std::to_string(i)) +
                        " " + f + ": golden " + valueAt(want, f, i) +
                        ", got " + valueAt(have, f, i));
        }
    }
    for (const auto &[name, c] : got)
        if (!golden.count(name))
            out.push_back(name + ": run, not in the golden file");
    return out;
}

std::string
joined(const std::vector<std::string> &lines)
{
    std::string s;
    for (const std::string &l : lines)
        s += l + "\n";
    return s;
}

/** Simulates @p app's cells and diffs them against its file entries. */
void
expectGolden(const std::string &app)
{
    Doc golden, got;
    for (const auto &[name, c] : parseDoc(slurp(RNR_GOLDEN_FILE)))
        if (appOf(name) == app)
            golden[name] = c;
    for (const std::string &cell : matrix())
        if (appOf(cell) == app)
            got[cell] = simulate(cell);
    const std::vector<std::string> d = diffDocs(golden, got);
    EXPECT_TRUE(d.empty()) << joined(d);
}

TEST(GoldenCounters, Pagerank) { expectGolden("pagerank"); }
TEST(GoldenCounters, Hyperanf) { expectGolden("hyperanf"); }
TEST(GoldenCounters, Labelprop) { expectGolden("labelprop"); }
TEST(GoldenCounters, Spcg) { expectGolden("spcg"); }
TEST(GoldenCounters, Jacobi) { expectGolden("jacobi"); }

TEST(GoldenFile, HoldsExactlyTheMatrix)
{
    // The per-app cases see only their own app; a cell of any other app
    // would go unchecked.  Compare the cell names alone.
    Doc run;
    for (const std::string &cell : matrix())
        run[cell] = {};
    Doc file = parseDoc(slurp(RNR_GOLDEN_FILE));
    for (auto &[name, c] : file)
        c.clear();
    EXPECT_EQ(run.size(), 39u);
    const std::vector<std::string> d = diffDocs(file, run);
    EXPECT_TRUE(d.empty()) << joined(d);
}

TEST(GoldenFile, RendersBackByteForByte)
{
    // So --update on an unchanged tree leaves the file untouched.
    const std::string text = slurp(RNR_GOLDEN_FILE);
    EXPECT_EQ(render(parseDoc(text)), text);
}

TEST(GoldenFile, AgreesWithThePerfbenchReference)
{
    // The two committed oracles must agree on every cell they share.
    const Doc reference = parseDoc(slurp(RNR_PERFBENCH_REFERENCE));
    Doc golden, shared;
    for (const auto &[name, c] : parseDoc(slurp(RNR_GOLDEN_FILE)))
        if (reference.count(name)) {
            golden[name] = c;
            shared[name] = reference.at(name);
        }
    EXPECT_EQ(golden.size(), 14u);
    const std::vector<std::string> d = diffDocs(golden, shared);
    EXPECT_TRUE(d.empty()) << joined(d);
}

// The checker checks: in-memory documents, nothing simulated.

struct GoldenChecker : ::testing::Test {
    const Doc golden = parseDoc(slurp(RNR_GOLDEN_FILE));
    Doc copy = parseDoc(render(golden));

    void
    expectOnly(const std::string &line)
    {
        const std::vector<std::string> d = diffDocs(golden, copy);
        ASSERT_EQ(d.size(), 1u) << joined(d);
        EXPECT_EQ(d[0], line);
    }
};

TEST_F(GoldenChecker, NamesThePerturbedCellIterationAndField)
{
    EXPECT_TRUE(diffDocs(golden, copy).empty());
    const std::string cell = "spcg:atmosmodj:rnr:window+pace:0";
    const std::uint64_t was = copy[cell]["l2_demand_misses"].at(1)++;
    expectOnly(cell + " iter 1 l2_demand_misses: golden " +
               std::to_string(was) + ", got " + std::to_string(was + 1));
}

TEST_F(GoldenChecker, NamesAPerturbedTableField)
{
    const std::string cell = "pagerank:amazon:rnr:window+pace:0";
    const std::uint64_t was = copy[cell]["div_table_bytes"].at(0)++;
    expectOnly(cell + " div_table_bytes: golden " + std::to_string(was) +
               ", got " + std::to_string(was + 1));
}

TEST_F(GoldenChecker, MissingCellFails)
{
    copy.erase("jacobi:atmosmodj:misb:window+pace:0");
    expectOnly("jacobi:atmosmodj:misb:window+pace:0: in the golden file, "
               "not run");
}

TEST_F(GoldenChecker, ExtraCellFails)
{
    copy["pagerank:urand:none:window+pace:0"] =
        golden.at("pagerank:amazon:none:window+pace:0");
    expectOnly("pagerank:urand:none:window+pace:0: run, not in the golden "
               "file");
}

int
update()
{
    Doc doc;
    for (const std::string &cell : matrix()) {
        std::fprintf(stderr, "golden: %s\n", cell.c_str());
        doc[cell] = simulate(cell);
    }
    std::ofstream out(RNR_GOLDEN_FILE, std::ios::binary | std::ios::trunc);
    if (!(out << render(doc)).flush()) {
        std::fprintf(stderr, "golden: cannot write %s\n", RNR_GOLDEN_FILE);
        return 1;
    }
    std::fprintf(stderr, "golden: wrote %zu cells\n", doc.size());
    return 0;
}

} // namespace
} // namespace rnr

int
main(int argc, char **argv)
{
    // Every cell a native simulation, and nothing written to the cwd.
    setenv("RNR_CACHE", "0", 1);
    setenv("RNR_TRACE_STORE", "0", 1);
    if (argc == 2 && std::strcmp(argv[1], "--update") == 0)
        return rnr::update();
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
