/**
 * @file
 * The JSON module (common/json.hh): the strict parser, the string
 * escaper and the round-trip number formatter that every JSON writer
 * shares.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>

#include "common/json.hh"

using namespace mcpat;
using common::JsonValue;
using common::jsonEscape;
using common::jsonNumber;
using common::jsonParse;

// ---------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------

TEST(JsonValue, ParsesScalarsContainersAndEscapes)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(
        "{\"a\": 1.5e2, \"b\": [true, null, \"x\\n\\u0041\"], "
        "\"c\": {\"d\": -3}}",
        v, &err)) << err;
    EXPECT_DOUBLE_EQ(v.getNumber("a"), 150.0);
    const JsonValue *b = v.find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(b->array.size(), 3u);
    EXPECT_TRUE(b->array[0].boolean);
    EXPECT_TRUE(b->array[1].isNull());
    EXPECT_EQ(b->array[2].str, "x\nA");
    ASSERT_NE(v.find("c"), nullptr);
    EXPECT_DOUBLE_EQ(v.find("c")->getNumber("d"), -3.0);
}

TEST(JsonValue, AcceptsValidDocuments)
{
    for (const char *ok :
         {"{}", "[]", "null", "true", "-1.5e-3", "\"s\"",
          "{\"a\": [1, 2.0, {\"b\": null}], \"c\": \"\\u00e9\\n\"}",
          "  [0]  "}) {
        JsonValue v;
        std::string error;
        EXPECT_TRUE(jsonParse(ok, v, &error)) << ok << ": " << error;
    }
}

TEST(JsonValue, RejectsMalformedDocuments)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\" 1}", "nul", "1 2", "{\"a\": 01}",
          "\"unterminated", "{\"a\": NaN}"}) {
        JsonValue v;
        std::string err;
        EXPECT_FALSE(jsonParse(bad, v, &err)) << "accepted: " << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(JsonValue, RejectsCommonWriterBugs)
{
    // The bugs hand-rolled writers make: trailing commas, bare
    // NaN/Infinity, unescaped control characters, truncation.
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":1,}", "nan", "Infinity", "-",
          "01", "{\"a\"}", "\"unterminated", "[1] trailing",
          "{\"a\": 1 \"b\": 2}", "\"bad\tcontrol\""}) {
        JsonValue v;
        std::string err;
        EXPECT_FALSE(jsonParse(bad, v, &err)) << "accepted: " << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(JsonValue, NestingBoundIs128)
{
    // A scalar inside 128 arrays sits at depth 128: the deepest
    // accepted.  The deepest artifact, a report tree, nests 12 levels.
    const auto nested = [](int depth) {
        return std::string(depth, '[') + "0" + std::string(depth, ']');
    };
    JsonValue v;
    std::string err;
    EXPECT_TRUE(jsonParse(nested(128), v, &err)) << err;
    EXPECT_FALSE(jsonParse(nested(129), v, &err));
    EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
}

TEST(JsonValue, RoundTripsEscapedReportDocuments)
{
    // The server embeds multi-line report documents as JSON strings;
    // escaping then parsing must reproduce the bytes exactly.
    const std::string doc =
        "{\n  \"name\": \"x\",\n  \"t\": \"a\\tb\"\n}\n";
    const std::string wrapped = "{\"report\": \"" + jsonEscape(doc) + "\"}";
    JsonValue v;
    std::string err;
    ASSERT_TRUE(jsonParse(wrapped, v, &err)) << err;
    EXPECT_EQ(v.getString("report"), doc);
}

// ---------------------------------------------------------------------
// Writers' primitives.
// ---------------------------------------------------------------------

TEST(JsonEscape, EscapesEachByteClassAndRoundTrips)
{
    const struct
    {
        std::string in;
        std::string out;
    } rows[] = {
        {"plain", "plain"},
        {"a\"b", "a\\\"b"},
        {"a\\b", "a\\\\b"},
        {"a\nb", "a\\nb"},
        {"a\tb", "a\\tb"},
        {"a\rb", "a\\u000db"},
        {std::string("a\0b", 3), "a\\u0000b"},
        {"a\x01" "b", "a\\u0001b"},
        {"a\x1f" "b", "a\\u001fb"},
        {"a \x7f", "a \x7f"},
        // UTF-8 and any other byte >= 0x80 pass through untouched.
        {"caf\xc3\xa9 \xe2\x82\xac", "caf\xc3\xa9 \xe2\x82\xac"},
        {"\x80\xff", "\x80\xff"},
        {"a\"b\\c\nd", "a\\\"b\\\\c\\nd"},
    };
    for (const auto &row : rows) {
        EXPECT_EQ(jsonEscape(row.in), row.out) << row.in;
        JsonValue v;
        std::string err;
        ASSERT_TRUE(jsonParse("\"" + jsonEscape(row.in) + "\"", v, &err))
            << err;
        EXPECT_EQ(v.str, row.in);
    }
}

TEST(JsonNumber, SeventeenDigitsRoundTripAndNonFiniteIsNull)
{
    for (const double x :
         {0.0, -0.0, 1.0, -3.0, 0.1, 1.0 / 3.0, 5.2821143187853984e-05,
          1e21, 1e300, 2.5e-308, 4.9e-324, 123456789012345680.0,
          std::numeric_limits<double>::max()}) {
        const std::string text = jsonNumber(x);
        // The same bytes as a precision-17 stream, which the report
        // writer formats its figures with.
        std::ostringstream os;
        os << std::setprecision(17) << x;
        EXPECT_EQ(text, os.str());
        JsonValue v;
        ASSERT_TRUE(jsonParse(text, v)) << text;
        EXPECT_EQ(v.number, x) << text;
        EXPECT_EQ(std::signbit(v.number), std::signbit(x)) << text;
    }
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(jsonNumber(-std::numeric_limits<double>::infinity()),
              "null");
}
