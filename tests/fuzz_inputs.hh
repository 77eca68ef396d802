/** @file Seeded mutation inputs shared by the fuzz tests: byte
 *  flips, deleted and spliced spans, and every truncation. */

#ifndef OSP_TESTS_FUZZ_INPUTS_HH
#define OSP_TESTS_FUZZ_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/random.hh"

namespace osp
{

/** Seeded mutations of @p valid: byte flips, and spans deleted or
 *  spliced in from @p donors. */
inline std::vector<std::string>
mutations(const std::string &valid,
          const std::vector<std::string> &donors, Pcg32 &rng, int n)
{
    std::vector<std::string> out;
    auto pos = [&](const std::string &s) {
        return rng.range(static_cast<std::uint32_t>(s.size() + 1));
    };
    for (int i = 0; i < n; ++i) {
        std::string s = valid;
        switch (rng.range(3)) {
          case 0:
            {
                const std::uint32_t flips = 1 + rng.range(3);
                for (std::uint32_t f = 0; f < flips; ++f)
                    s[pos(s) % s.size()] ^=
                        static_cast<char>(1u << rng.range(8));
            }
            break;
          case 1:
            {
                const std::uint32_t at = pos(s);
                s.erase(at, 1 + rng.range(16));
            }
            break;
          default:
            {
                const std::string &d =
                    donors[rng.range(static_cast<std::uint32_t>(
                        donors.size()))];
                const std::uint32_t from = pos(d);
                const std::string span =
                    d.substr(from, 1 + rng.range(24));
                const std::uint32_t at = pos(s);
                s.replace(at, rng.range(2) ? span.size() : 0, span);
            }
            break;
        }
        out.push_back(std::move(s));
    }
    return out;
}

/** Every proper prefix of @p valid. */
inline std::vector<std::string>
truncations(const std::string &valid)
{
    std::vector<std::string> out;
    for (std::size_t n = 0; n < valid.size(); ++n)
        out.push_back(valid.substr(0, n));
    return out;
}

} // namespace osp

#endif // OSP_TESTS_FUZZ_INPUTS_HH
