/** @file Tests for the stable FNV-1a hash: golden values from the
 *  published test vectors (the hash is an on-disk format — these
 *  must never change), streaming equivalence, and the string
 *  separator. tools/check_store.py re-implements the same function
 *  in Python against the same constants. */

#include <gtest/gtest.h>

#include "util/hash.hh"

namespace osp
{
namespace
{

TEST(StableHash, GoldenVectors)
{
    // Published 64-bit FNV-1a reference values.
    EXPECT_EQ(stableHash64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(stableHash64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(stableHash64("foobar"), 0x85944171f73967e8ULL);
}

TEST(StableHash, StreamingMatchesOneShot)
{
    StableHash h;
    h.bytes("foo", 3).bytes("bar", 3);
    EXPECT_EQ(h.value(), stableHash64("foobar"));
}

TEST(StableHash, StrSeparatorPreventsAliasing)
{
    // Without the terminator, ("ab","c") and ("a","bc") would fold
    // identical byte streams.
    StableHash a, b;
    a.str("ab").str("c");
    b.str("a").str("bc");
    EXPECT_NE(a.value(), b.value());
}

TEST(StableHash, HexIsZeroPadded16Digits)
{
    EXPECT_EQ(StableHash().bytes("", 0).hex(),
              "cbf29ce484222325");
    StableHash h;
    // Force a value with a leading zero nibble to check padding.
    for (int i = 0; i < 256 && (h.value() >> 60) != 0; ++i) {
        const unsigned char b = static_cast<unsigned char>(i);
        h.bytes(&b, 1);
    }
    EXPECT_EQ(h.hex().size(), 16u);
}

} // namespace
} // namespace osp
