// Shared pieces of the encoding differential tests: the step-by-step
// reference the one-pass QGramExtractor::ForEachIndex must equal, and
// seeded random attribute values to feed both.
//
// The values mix every character class the one-pass encoder has to treat
// like Normalize(): upper- and lower-case letters, the padding symbol '_',
// digits and space (inside Alphanumeric only), ASCII punctuation and
// control bytes outside every alphabet, and bytes >= 0x80.  Lengths run
// from empty through shorter-than-q to address-like.

#ifndef CBVLINK_TESTS_QGRAM_REFERENCE_H_
#define CBVLINK_TESTS_QGRAM_REFERENCE_H_

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/common/random.h"
#include "src/text/normalize.h"
#include "src/text/qgram.h"

namespace cbvlink {

/// Normalize, then Grams, then GramIndex: the steps ForEachIndex fuses.
inline std::vector<uint64_t> ReferenceIndexes(const QGramExtractor& e,
                                              std::string_view raw) {
  std::vector<uint64_t> out;
  for (const std::string& gram : e.Grams(Normalize(raw, e.alphabet()))) {
    Result<uint64_t> ind = e.GramIndex(gram);
    EXPECT_TRUE(ind.ok()) << ind.status().ToString();
    out.push_back(ind.ok() ? ind.value() : UINT64_MAX);
  }
  return out;
}

inline std::string RandomField(Rng& rng) {
  static constexpr char kPunctuation[] = "!\"#$%&'()*+,-./:;<=>?@[\\]^`{|}~\t\n";
  const size_t len = rng.NextBool(0.2) ? rng.Below(3) : rng.Below(24);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    char c = 0;
    switch (rng.Below(7)) {
      case 0:
      case 1:
        c = static_cast<char>('A' + rng.Below(26));
        break;
      case 2:
        c = static_cast<char>('a' + rng.Below(26));
        break;
      case 3:
        c = rng.NextBool(0.5) ? '_' : ' ';
        break;
      case 4:
        c = static_cast<char>('0' + rng.Below(10));
        break;
      case 5:
        c = kPunctuation[rng.Below(sizeof(kPunctuation) - 1)];
        break;
      default:
        c = static_cast<char>(0x80 + rng.Below(0x80));
        break;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace cbvlink

#endif  // CBVLINK_TESTS_QGRAM_REFERENCE_H_
