// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// Seeded input mutation for the reject-don't-crash loops of the parser
// tests: each loop mutates valid inputs of one surface (XML, XQuery text,
// fragment patterns) and requires every result to parse or to fail with a
// Status. The sanitizer lanes turn any out-of-bounds read, overflow or UB
// on the way into a failure; a fixed seed makes every failure reproduce.

#ifndef MHX_TESTS_MUTATION_H_
#define MHX_TESTS_MUTATION_H_

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace mhx::fuzz {

// `input` after 1 to 4 random edits: a byte replaced by any byte, a byte
// from `alphabet` (the surface's syntax characters) inserted, up to four
// bytes deleted, a slice of up to 16 bytes duplicated, or a truncation.
inline std::string Mutate(std::string input, std::string_view alphabet,
                          std::mt19937_64& rng) {
  auto below = [&rng](size_t n) {
    return n == 0 ? size_t{0} : static_cast<size_t>(rng() % n);
  };
  const size_t edits = 1 + below(4);
  for (size_t e = 0; e < edits; ++e) {
    const size_t pos = below(input.size() + 1);
    switch (below(5)) {
      case 0:
        if (pos < input.size()) input[pos] = static_cast<char>(rng());
        break;
      case 1:
        input.insert(pos, 1, alphabet[below(alphabet.size())]);
        break;
      case 2:
        input.erase(pos, 1 + below(4));
        break;
      case 3:
        input.insert(pos, input.substr(below(input.size() + 1),
                                       1 + below(16)));
        break;
      default:
        input.resize(pos);
        break;
    }
  }
  return input;
}

// Runs `check` on `rounds` mutations of each of `seeds`, drawn from one
// fixed-seed stream.
template <typename Check>
void ForEachMutation(const std::vector<std::string>& seeds,
                     std::string_view alphabet, size_t rounds,
                     uint64_t seed, Check&& check) {
  std::mt19937_64 rng(seed);
  for (size_t r = 0; r < rounds; ++r) {
    for (const std::string& input : seeds) check(Mutate(input, alphabet, rng));
  }
}

}  // namespace mhx::fuzz

#endif  // MHX_TESTS_MUTATION_H_
