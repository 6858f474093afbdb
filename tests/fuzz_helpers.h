#pragma once

/// \file fuzz_helpers.h
/// Seeded mutation fuzzing shared by the parser fuzz tests (CsvFuzz,
/// JsonFuzz): a checked-in seed corpus, one mutation operator, and a
/// printable form of a failing input to pin as a regression case.

#include <fstream>
#include <initializer_list>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "support/rng.h"

namespace mood::testing {

/// The seed files `names` under `dir`, each read whole.
inline std::vector<std::string> seed_corpus(
    const std::string& dir, std::initializer_list<const char*> names) {
  std::vector<std::string> corpus;
  for (const char* name : names) {
    std::ifstream in(dir + "/" + name, std::ios::binary);
    corpus.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
    EXPECT_FALSE(corpus.back().empty()) << "missing seed " << dir << "/"
                                        << name;
  }
  return corpus;
}

/// One seeded mutation of a corpus entry: flips 1-8 bits, truncates at a
/// random length, or splices a random run of another entry over a random
/// run of this one.
inline std::string mutate(const std::vector<std::string>& corpus,
                          support::RngStream& rng) {
  std::string input = corpus[rng.uniform_index(corpus.size())];
  const auto run_of = [&](const std::string& s) {
    const std::size_t at = rng.uniform_index(s.size() + 1);
    return std::pair(at, rng.uniform_index(s.size() - at + 1));
  };
  switch (rng.uniform_index(3)) {
    case 0:
      for (std::size_t n = 1 + rng.uniform_index(8); n > 0; --n) {
        input[rng.uniform_index(input.size())] ^=
            static_cast<char>(1u << rng.uniform_index(8));
      }
      break;
    case 1:
      input.resize(rng.uniform_index(input.size() + 1));
      break;
    default: {
      const std::string& donor = corpus[rng.uniform_index(corpus.size())];
      const auto [from, length] = run_of(donor);
      const auto [at, replaced] = run_of(input);
      input.replace(at, replaced, donor, from, length);
    }
  }
  return input;
}

/// Printable form of a failing input for the test log.
inline std::string escaped(const std::string& input) {
  std::string out;
  for (const unsigned char c : input) {
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out.push_back(static_cast<char>(c));
    } else {
      static const char* kHex = "0123456789abcdef";
      out += "\\x";
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 15]);
    }
  }
  return out;
}

}  // namespace mood::testing
