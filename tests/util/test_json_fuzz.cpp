/** @file Robustness fuzzing of JsonValue::parse on its own: mutated
 *  and truncated documents must parse or be rejected with ok ==
 *  false and a position inside the input, never throw, abort, hang
 *  or read past the end; whatever parses must dump to a canonical
 *  form that parses back to itself. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz_inputs.hh"
#include "util/json.hh"
#include "util/random.hh"

namespace osp
{
namespace
{

/** Documents that cover every value kind, escape and number form
 *  the parser reads. */
std::vector<std::string>
seedDocuments()
{
    return {
        "{\"schema\":\"ospredict-sweep-v1\",\"cells\":[{\"index\":0,"
        "\"workload\":\"ab-seq\",\"cycles\":18446744073709551615,"
        "\"delta\":-9223372036854775808,\"error\":0.0321,"
        "\"tiny\":5e-324,\"big\":1.7976931348623157e308,"
        "\"ok\":true,\"failed\":false,\"note\":null}],"
        "\"text\":\"tab\\tquote\\\"slash\\/back\\\\\\u00e9\\u20ac\"}",
        "[[1,[2,[3,[4,[5,[]]]]]],{},{\"a\":{\"b\":{\"c\":[]}}},"
        "-0,0.5,-1.25E+3,12e-2,\"\\b\\f\\n\\r\\u0041\"]",
        "  \"top-level string\"  ",
        "-0.0",
    };
}

/** Every input either parses or reports ok == false with a Null
 *  value and an error offset inside the input. A parsed document
 *  dumps to text that parses back and dumps to the same bytes. */
void
checkParse(const std::string &in)
{
    bool ok = false;
    std::string error;
    JsonValue v;
    ASSERT_NO_THROW(v = JsonValue::parse(in, &ok, &error)) << in;
    if (!ok) {
        ASSERT_TRUE(v.kind() == JsonValue::Kind::Null) << in;
        const std::string tag = "json parse error at offset ";
        ASSERT_EQ(error.compare(0, tag.size(), tag), 0) << error;
        const std::size_t offset =
            std::stoul(error.substr(tag.size()));
        ASSERT_LE(offset, in.size()) << in;
        return;
    }
    ASSERT_TRUE(error.empty()) << in;
    const std::string once = v.dump(-1);
    bool again_ok = false;
    const JsonValue again = JsonValue::parse(once, &again_ok);
    ASSERT_TRUE(again_ok) << in << " dumped as " << once;
    ASSERT_EQ(again.dump(-1), once) << in;
    ASSERT_EQ(again.dump(2), v.dump(2)) << in;
}

class JsonFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(JsonFuzz, ParseFailsClosed)
{
    const std::vector<std::string> seeds = seedDocuments();
    Pcg32 rng(GetParam(), 0x150A);
    std::vector<std::string> inputs = truncations(seeds[1]);
    for (const std::string &s : seeds) {
        std::vector<std::string> m = mutations(s, seeds, rng, 2000);
        inputs.insert(inputs.end(), m.begin(), m.end());
    }
    for (const std::string &in : inputs)
        checkParse(in);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz, ::testing::Range(1, 6));

/** Nesting past the parser's depth bound is rejected, not recursed
 *  into without limit. */
TEST(Json, DeepNestingIsRejected)
{
    bool ok = true;
    JsonValue::parse(std::string(100000, '['), &ok);
    EXPECT_FALSE(ok);
    ok = true;
    JsonValue::parse(std::string(100000, '{'), &ok);
    EXPECT_FALSE(ok);
}

} // namespace
} // namespace osp
