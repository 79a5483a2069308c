/**
 * @file
 * Tests for the shared JSON writing helpers (harness/json_write.h) —
 * the single escaper used by the sweep export, the run report, trace
 * events and the metrics exposition.  The escaping rules here are what
 * keeps those four emitters in agreement; a regression in any case
 * below would corrupt one of their outputs.
 */
#include <cmath>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "harness/json_parse.h"
#include "harness/json_write.h"

namespace rnr {
namespace {

TEST(JsonWriteTest, PlainTextPassesThroughUntouched)
{
    EXPECT_EQ(jsonEscape("pagerank:amazon:i1:c1"),
              "pagerank:amazon:i1:c1");
    EXPECT_EQ(jsonEscape(""), "");
}

TEST(JsonWriteTest, QuotesAndBackslashesAreEscaped)
{
    EXPECT_EQ(jsonEscape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(jsonEscape("C:\\traces\\run"), "C:\\\\traces\\\\run");
}

TEST(JsonWriteTest, NamedControlCharactersUseShortEscapes)
{
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape("a\tb"), "a\\tb");
    EXPECT_EQ(jsonEscape("a\rb"), "a\\rb");
}

TEST(JsonWriteTest, OtherControlCharactersUseUnicodeEscapes)
{
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(jsonEscape(std::string(1, '\x1f')), "\\u001f");
    // 0x20 (space) and above are not control characters.
    EXPECT_EQ(jsonEscape(" ~"), " ~");
}

TEST(JsonWriteTest, QuoteWrapsTheEscapedText)
{
    EXPECT_EQ(jsonQuote("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(jsonQuote(""), "\"\"");
}

TEST(JsonWriteTest, U64RendersExactlyIncludingMax)
{
    EXPECT_EQ(jsonU64(0), "0");
    EXPECT_EQ(jsonU64(1234567890123456789ull), "1234567890123456789");
    // 2^64-1 cannot survive a trip through a double; the writer must
    // not take one.
    EXPECT_EQ(jsonU64(18446744073709551615ull), "18446744073709551615");
}

TEST(JsonWriteTest, U64RoundTripsThroughTheParser)
{
    const std::uint64_t big = 18446744073709551615ull;
    const std::string doc = "{\"v\": " + jsonU64(big) + "}";
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson(doc, v, &error)) << error;
    const JsonValue *field = v.find("v");
    ASSERT_NE(field, nullptr);
    EXPECT_EQ(field->asU64(), big);
}

TEST(JsonWriteTest, DoubleRoundTripsAndNonFiniteBecomesZero)
{
    const double pi = 3.141592653589793;
    EXPECT_EQ(std::strtod(jsonDouble(pi).c_str(), nullptr), pi);
    EXPECT_EQ(jsonDouble(0.0), "0");
    // JSON has no NaN/Infinity tokens; the writer substitutes 0 rather
    // than emitting an unparsable document.
    EXPECT_EQ(jsonDouble(std::nan("")), "0");
    EXPECT_EQ(jsonDouble(HUGE_VAL), "0");
}

TEST(JsonWriteTest, BoolUsesJsonKeywords)
{
    EXPECT_STREQ(jsonBool(true), "true");
    EXPECT_STREQ(jsonBool(false), "false");
}

} // namespace
} // namespace rnr
