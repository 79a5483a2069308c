/**
 * @file
 * Fixed-seed mutation tests of the harness's two text decoders: the
 * result-cache line codec (ResultCache::deserialize, and the loader
 * behind ResultCache::lookup) and the JSON reader (parseJson).
 *
 * Every case starts from valid text and applies Rng-driven bit flips,
 * every truncation, or (for cache lines) a lying iteration count.  Each
 * must end in a typed failure (false, with an error message for JSON)
 * or a valid parse; never a crash, a read past the text (the ASan job
 * runs these too) or a loop that does not end.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/json_parse.h"
#include "harness/result_cache.h"
#include "sim/rng.h"

namespace rnr {
namespace {

constexpr unsigned kIters = 3;
constexpr std::size_t kFieldsPerIter = 0
#define RNR_COUNT_FIELD(type, name) +1
    RNR_ITER_STAT_FIELDS(RNR_COUNT_FIELD)
#undef RNR_COUNT_FIELD
    ;

/** Whitespace-separated tokens in @p s. */
std::size_t
tokenCount(const std::string &s)
{
    std::istringstream is(s);
    std::size_t n = 0;
    for (std::string t; is >> t;)
        ++n;
    return n;
}

/** A kIters-iteration cache value with counters of every width. */
std::string
validCacheValue()
{
    ExperimentResult r;
    r.input_bytes = 123456789;
    r.target_bytes = 4096;
    r.seq_table_bytes = 77;
    r.div_table_bytes = 0;
    Rng rng(5);
    for (unsigned i = 0; i < kIters; ++i) {
        IterStats it;
#define RNR_SET_FIELD(type, name)                                           \
        {                                                                   \
            const unsigned shift = static_cast<unsigned>(rng.below(64));    \
            it.name = rng.next64() >> shift;                                \
        }
        RNR_ITER_STAT_FIELDS(RNR_SET_FIELD)
#undef RNR_SET_FIELD
        r.iterations.push_back(it);
    }
    return ResultCache::serialize(r);
}

/**
 * Decodes @p value and checks the outcome is a typed failure or a
 * valid parse: an accepted value holds exactly the fields its count
 * declares, and re-encoding it decodes to the same result.
 */
void
expectParsesOrFails(const std::string &value)
{
    ExperimentResult r;
    if (!ResultCache::deserialize(value, r))
        return;
    ASSERT_FALSE(r.iterations.empty()) << value;
    EXPECT_EQ(tokenCount(value), 5 + r.iterations.size() * kFieldsPerIter)
        << value;
    const std::string again = ResultCache::serialize(r);
    ExperimentResult r2;
    ASSERT_TRUE(ResultCache::deserialize(again, r2)) << again;
    EXPECT_EQ(ResultCache::serialize(r2), again);
}

/** @p s with @p flips random bits flipped. */
std::string
flipBits(std::string s, Rng &rng, unsigned flips)
{
    for (unsigned f = 0; f < flips; ++f)
        s[rng.below(s.size())] ^=
            static_cast<char>(1u << rng.below(8));
    return s;
}

TEST(ResultCacheMutation, BitFlippedValuesParseOrFail)
{
    const std::string value = validCacheValue();
    Rng rng(0xcafe);
    for (int c = 0; c < 2000; ++c) {
        SCOPED_TRACE(c);
        expectParsesOrFails(flipBits(value, rng, 1 + c % 3));
    }
}

TEST(ResultCacheMutation, EveryTruncationParsesOrFails)
{
    const std::string value = validCacheValue();
    for (std::size_t len = 0; len < value.size(); ++len) {
        SCOPED_TRACE(len);
        const std::string cut = value.substr(0, len);
        expectParsesOrFails(cut);
        // A cut can only shorten the last number; a parse that
        // survives still holds every declared iteration.
        ExperimentResult r;
        if (ResultCache::deserialize(cut, r)) {
            EXPECT_EQ(r.iterations.size(), kIters);
        }
    }
}

TEST(ResultCacheMutation, LyingIterationCountsFail)
{
    const std::string value = validCacheValue();
    // The count is the fifth token.
    std::size_t at = 0;
    for (int t = 0; t < 4; ++t)
        at = value.find(' ', at) + 1;
    const std::size_t end = value.find(' ', at);
    ASSERT_EQ(value.substr(at, end - at), std::to_string(kIters));
    for (const char *lie :
         {"0", "1", "2", "4", "5", "99", "4294967296", "-1",
          "18446744073709551615", "18446744073709551616", "x", ""}) {
        SCOPED_TRACE(lie);
        const std::string lying =
            value.substr(0, at) + lie + value.substr(end);
        ExperimentResult r;
        EXPECT_FALSE(ResultCache::deserialize(lying, r));
    }
}

/** Points the process cache at a scratch file for the loader cases. */
class ResultCacheLoaderMutation : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "decoder_mutation_test.cache";
        std::remove(path_.c_str());
        setenv("RNR_CACHE", "1", 1);
        setenv("RNR_CACHE_FILE", path_.c_str(), 1);
        ResultCache::instance().clearForTest();
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
        setenv("RNR_CACHE", "0", 1);
        ResultCache::instance().clearForTest();
    }

    /** Loads a file holding @p line; a hit must be a whole result. */
    void
    expectLoadsOrSkips(const ExperimentConfig &cfg, const std::string &line)
    {
        {
            std::ofstream out(path_, std::ios::trunc | std::ios::binary);
            out << line << "\n";
        }
        ResultCache::instance().clearForTest();
        ExperimentResult got;
        if (ResultCache::instance().lookup(cfg, got)) {
            EXPECT_EQ(got.iterations.size(), cfg.iterations) << line;
        }
    }

    std::string path_;
};

TEST_F(ResultCacheLoaderMutation, MutatedLinesLoadOrAreSkipped)
{
    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    cfg.iterations = kIters;
    cfg.cores = 1;
    const std::string line = cfg.key() + "|" + validCacheValue();

    // Control: the unmutated line is a hit.
    {
        std::ofstream out(path_, std::ios::trunc);
        out << line << "\n";
    }
    ResultCache::instance().clearForTest();
    ExperimentResult got;
    ASSERT_TRUE(ResultCache::instance().lookup(cfg, got));

    Rng rng(0xbeef);
    for (int c = 0; c < 300; ++c) {
        SCOPED_TRACE(c);
        expectLoadsOrSkips(cfg, flipBits(line, rng, 1 + c % 3));
    }
    for (std::size_t len = 0; len < line.size(); ++len) {
        SCOPED_TRACE(len);
        expectLoadsOrSkips(cfg, line.substr(0, len));
    }
}

/** A document with every JSON kind, escapes and extreme numbers. */
const char kJsonDoc[] =
    R"({"schema": "rnr-sweep-v2", "label": "fig \"13\"\n\t\\/",)"
    R"( "cells": [{"key": "pagerank:urand:w0:i3:c4:none",)"
    R"( "iterations": [{"cycles": 18446744073709551615,)"
    R"( "ipc": 1.25e-3, "neg": -7, "zero": 0}], "ok": true,)"
    R"( "skip": false, "none": null, "s": "\u00e9A"}],)"
    R"( "empty": {}, "nest": [[], [1, [2.5, [-3E+2]]]], "u": "\uffff"})";

/** Visits every node of @p v; returns the node count. */
std::size_t
walk(const JsonValue &v)
{
    std::size_t n = 1;
    switch (v.kind) {
    case JsonValue::Kind::Number:
        (void)v.asDouble();
        (void)v.asU64();
        break;
    case JsonValue::Kind::Array:
        for (const JsonValue &item : v.items)
            n += walk(item);
        break;
    case JsonValue::Kind::Object:
        for (const auto &[key, member] : v.members)
            n += walk(member);
        break;
    default:
        break;
    }
    return n;
}

/** A failed parse carries an error message; a parse is walkable. */
void
expectJsonParsesOrFails(const std::string &text)
{
    JsonValue v;
    std::string error;
    if (parseJson(text, v, &error)) {
        EXPECT_GE(walk(v), 1u);
    } else {
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(JsonMutation, ControlDocumentParses)
{
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson(kJsonDoc, v, &error)) << error;
    EXPECT_EQ(walk(v), 26u);
}

TEST(JsonMutation, BitFlippedDocumentsParseOrFail)
{
    const std::string doc = kJsonDoc;
    Rng rng(0x15057);
    for (int c = 0; c < 3000; ++c) {
        SCOPED_TRACE(c);
        expectJsonParsesOrFails(flipBits(doc, rng, 1 + c % 3));
    }
}

TEST(JsonMutation, EveryTruncationFails)
{
    // Every proper prefix of an object is unterminated.
    const std::string doc = kJsonDoc;
    for (std::size_t len = 0; len < doc.size(); ++len) {
        SCOPED_TRACE(len);
        JsonValue v;
        std::string error;
        EXPECT_FALSE(parseJson(doc.substr(0, len), v, &error));
        EXPECT_FALSE(error.empty());
    }
}

TEST(JsonMutation, StructuralByteSplicesParseOrFail)
{
    // Bit flips rarely make structure; overwrite bytes with it instead.
    const std::string doc = kJsonDoc;
    const std::string structural = "{}[]\",:\\ -0e.u";
    Rng rng(0x5911);
    for (int c = 0; c < 3000; ++c) {
        SCOPED_TRACE(c);
        std::string text = doc;
        for (int k = 0; k < 1 + c % 4; ++k)
            text[rng.below(text.size())] =
                structural[rng.below(structural.size())];
        expectJsonParsesOrFails(text);
    }
}

} // namespace
} // namespace rnr
