/** @file Unit tests for the JSON emitter/parser. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "util/json.hh"

namespace osp
{
namespace
{

TEST(Json, ScalarDump)
{
    EXPECT_EQ(JsonValue().dump(-1), "null");
    EXPECT_EQ(JsonValue(true).dump(-1), "true");
    EXPECT_EQ(JsonValue(false).dump(-1), "false");
    EXPECT_EQ(JsonValue(std::int64_t(-7)).dump(-1), "-7");
    EXPECT_EQ(JsonValue(std::uint64_t(18446744073709551615ull))
                  .dump(-1),
              "18446744073709551615");
    EXPECT_EQ(JsonValue(std::string("hi")).dump(-1), "\"hi\"");
}

TEST(Json, StringEscapes)
{
    JsonValue v(std::string("a\"b\\c\n\t\x01"));
    EXPECT_EQ(v.dump(-1), "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(Json, DoublesRoundTripShortest)
{
    // Shortest round-trip formatting: 0.1 stays "0.1".
    EXPECT_EQ(JsonValue(0.1).dump(-1), "0.1");
    EXPECT_EQ(JsonValue(2.0).dump(-1), "2");
    // Non-finite doubles are not representable in JSON.
    EXPECT_EQ(
        JsonValue(std::numeric_limits<double>::quiet_NaN()).dump(-1),
        "null");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    JsonValue obj = JsonValue::object();
    obj.add("zebra", 1L);
    obj.add("alpha", 2L);
    obj.add("mid", JsonValue::array());
    EXPECT_EQ(obj.dump(-1), "{\"zebra\":1,\"alpha\":2,\"mid\":[]}");
}

TEST(Json, IndentedOutput)
{
    JsonValue obj = JsonValue::object();
    obj.add("a", 1L);
    JsonValue arr = JsonValue::array();
    arr.append(true);
    obj.add("b", std::move(arr));
    EXPECT_EQ(obj.dump(2),
              "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ]\n}");
}

TEST(Json, ParseRoundTrip)
{
    JsonValue obj = JsonValue::object();
    obj.add("name", std::string("fig08"));
    obj.add("count", std::int64_t(15));
    obj.add("big", std::uint64_t(1) << 63);
    obj.add("error", 0.032);
    obj.add("ok", true);
    obj.add("nothing", JsonValue());
    JsonValue cells = JsonValue::array();
    for (int i = 0; i < 3; ++i) {
        JsonValue cell = JsonValue::object();
        cell.add("index", std::int64_t{i});
        cells.append(std::move(cell));
    }
    obj.add("cells", std::move(cells));

    std::string text = obj.dump(2);
    bool ok = false;
    std::string error;
    JsonValue back = JsonValue::parse(text, &ok, &error);
    ASSERT_TRUE(ok) << error;
    // Re-emitting the parsed tree reproduces the bytes exactly:
    // insertion order, integer width, and double formatting all
    // survive the round trip.
    EXPECT_EQ(back.dump(2), text);
    EXPECT_EQ(back["count"].asInt(), 15);
    EXPECT_EQ(back["big"].asUint(), std::uint64_t(1) << 63);
    EXPECT_DOUBLE_EQ(back["error"].asDouble(), 0.032);
    EXPECT_EQ(back["cells"].size(), 3u);
}

TEST(Json, ParseRejectsMalformed)
{
    bool ok = true;
    JsonValue::parse("{\"a\":1,}", &ok);
    EXPECT_FALSE(ok);
    ok = true;
    JsonValue::parse("[1, 2", &ok);
    EXPECT_FALSE(ok);
    ok = true;
    JsonValue::parse("{} trailing", &ok);
    EXPECT_FALSE(ok);
    ok = true;
    JsonValue::parse("{\"a\":1,\"a\":2}", &ok);
    EXPECT_FALSE(ok);
    ok = true;
    JsonValue::parse("nul", &ok);
    EXPECT_FALSE(ok);
}

/** write() spells the double -0.0 as "-0"; parsing it back must
 *  keep the sign, so the document re-encodes to the same bytes. */
TEST(Json, NegativeZeroRoundTrips)
{
    EXPECT_EQ(JsonValue(-0.0).dump(-1), "-0");
    bool ok = false;
    JsonValue v = JsonValue::parse("[-0,-0.0,0,-1]", &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(v.dump(-1), "[-0,-0,0,-1]");
    EXPECT_TRUE(std::signbit(v.elements()[0].asDouble()));
    EXPECT_EQ(v.elements()[3].kind(), JsonValue::Kind::Int);
}

/** Only JSON's grammar parses: no leading zero, bare fraction or
 *  exponent, and no raw control character inside a string. */
TEST(Json, ParseRejectsWhatJsonForbids)
{
    for (const char *text :
         {"01", "-01", ".5", "-.5", "1.", "1.e3", "1e", "1e+", "+1",
          "-", "[00]", "\"a\tb\"", "\"a\nb\""}) {
        bool ok = true;
        JsonValue::parse(text, &ok);
        EXPECT_FALSE(ok) << text;
    }
    for (const char *text : {"0", "-0", "0.5", "-1.5e-3", "10E2",
                             "\"a\\tb\""}) {
        bool ok = false;
        JsonValue::parse(text, &ok);
        EXPECT_TRUE(ok) << text;
    }
}

TEST(Json, ParseUnicodeEscapes)
{
    bool ok = false;
    JsonValue v = JsonValue::parse("\"\\u0041\\u00e9\"", &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(v.asString(), "A\xc3\xa9");
}

TEST(Json, FindAndLookup)
{
    JsonValue obj = JsonValue::object();
    obj.add("x", 1L);
    EXPECT_NE(obj.find("x"), nullptr);
    EXPECT_EQ(obj.find("y"), nullptr);
    EXPECT_EQ(obj["x"].asInt(), 1);
}

} // namespace
} // namespace osp
