/**
 * @file
 * The json_parse DOM reader under the sweep loader, the explain
 * document's tests and the bench-regression gate: scalars, exact u64
 * counters, malformed input, recursion depth and unicode escapes.
 */
#include <string>

#include <gtest/gtest.h>

#include "harness/json_parse.h"

namespace rnr {
namespace {

TEST(JsonParseTest, ParsesScalarsArraysAndObjects)
{
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson(
        R"({"a": 1, "b": [true, null, "x\n"], "c": {"d": -2.5}})", v,
        &error))
        << error;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("a")->asU64(), 1u);
    const JsonValue *b = v.find("b");
    ASSERT_TRUE(b->isArray());
    ASSERT_EQ(b->items.size(), 3u);
    EXPECT_TRUE(b->items[0].boolean);
    EXPECT_TRUE(b->items[1].isNull());
    EXPECT_EQ(b->items[2].text, "x\n");
    EXPECT_DOUBLE_EQ(v.find("c")->find("d")->asDouble(), -2.5);
}

TEST(JsonParseTest, U64CountersRoundTripExactly)
{
    // 2^63 + 1 is not representable as a double; the raw-token design
    // must preserve it exactly.
    JsonValue v;
    ASSERT_TRUE(parseJson(R"({"n": 9223372036854775809})", v));
    EXPECT_EQ(v.find("n")->asU64(), 9223372036854775809ull);
}

TEST(JsonParseTest, ScientificNotationAndNegatives)
{
    JsonValue v;
    ASSERT_TRUE(parseJson(R"({"sci": 5.0e6, "neg": -7})", v));
    EXPECT_DOUBLE_EQ(v.find("sci")->asDouble(), 5.0e6);
    EXPECT_EQ(v.find("sci")->asU64(), 5000000u);
    EXPECT_EQ(v.find("neg")->asU64(), 0u); // negatives truncate to 0
    EXPECT_DOUBLE_EQ(v.find("neg")->asDouble(), -7.0);
}

TEST(JsonParseTest, RejectsMalformedInput)
{
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson("{", v, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(parseJson("{\"a\": 1,}", v, &error));
    EXPECT_FALSE(parseJson("[1, 2] trailing", v, &error));
    EXPECT_FALSE(parseJson("", v, &error));
    EXPECT_FALSE(parseJson("{\"unterminated", v, &error));
}

TEST(JsonParseTest, DepthLimitStopsRecursionBombs)
{
    std::string bomb(200, '[');
    bomb += std::string(200, ']');
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson(bomb, v, &error));
    EXPECT_FALSE(error.empty());
}

TEST(JsonParseTest, UnicodeEscapesDecodeToUtf8)
{
    JsonValue v;
    ASSERT_TRUE(parseJson("{\"s\": \"\\u00e9A\"}", v));
    EXPECT_EQ(v.find("s")->text, "\xc3\xa9" "A");
}

} // namespace
} // namespace rnr
