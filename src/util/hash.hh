/**
 * @file
 * Stable content hashing for persistence and content addressing.
 *
 * The persistent store (src/store) and the sweep-cell cache
 * (src/driver/cell_cache) both need a hash whose value is part of
 * an on-disk format: it must be identical across platforms, runs,
 * thread counts and compilers, and re-implementable in a few lines
 * of Python (tools/check_store.py validates store files with it).
 * std::hash guarantees none of that, so this is 64-bit FNV-1a —
 * simple, endianness-free (bytes are folded one at a time), and
 * with well-known constants any checker can reproduce.
 *
 * Not a cryptographic hash: keys derived from it are
 * collision-checked by storing the full key context alongside the
 * value (see CellCache).
 */

#ifndef OSP_UTIL_HASH_HH
#define OSP_UTIL_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace osp
{

/** Streaming 64-bit FNV-1a. */
class StableHash
{
  public:
    static constexpr std::uint64_t offsetBasis =
        0xcbf29ce484222325ULL;
    static constexpr std::uint64_t prime = 0x100000001b3ULL;

    /** Fold raw bytes. */
    StableHash &
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            state_ ^= p[i];
            state_ *= prime;
        }
        return *this;
    }

    /** Fold a string's bytes plus a terminator, so consecutive
     *  strings cannot alias ("ab","c" vs "a","bc"). */
    StableHash &
    str(std::string_view s)
    {
        bytes(s.data(), s.size());
        const unsigned char sep = 0x1f;
        return bytes(&sep, 1);
    }

    std::uint64_t value() const { return state_; }

    /** 16-digit lowercase hex of value(). */
    std::string
    hex() const
    {
        static const char digits[] = "0123456789abcdef";
        std::string out(16, '0');
        std::uint64_t v = state_;
        for (int i = 15; i >= 0; --i) {
            out[static_cast<std::size_t>(i)] = digits[v & 0xf];
            v >>= 4;
        }
        return out;
    }

  private:
    std::uint64_t state_ = offsetBasis;
};

/** One-shot hash of a byte range. */
inline std::uint64_t
stableHash64(const void *data, std::size_t len)
{
    return StableHash().bytes(data, len).value();
}

/** One-shot hash of a string. */
inline std::uint64_t
stableHash64(std::string_view s)
{
    return stableHash64(s.data(), s.size());
}

} // namespace osp

#endif // OSP_UTIL_HASH_HH
