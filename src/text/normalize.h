// String normalization applied before q-gram extraction.
//
// All encoders in the paper assume upper-case string values over a known
// alphabet.  Normalize() uppercases ASCII and drops any character outside
// the target alphabet, so downstream index mapping (Algorithm 1) is total.

#ifndef CBVLINK_TEXT_NORMALIZE_H_
#define CBVLINK_TEXT_NORMALIZE_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "src/text/alphabet.h"

namespace cbvlink {

/// Uppercases ASCII letters and removes characters that are not in
/// `alphabet` (the padding character is never emitted by normalization —
/// it is reserved for the extractor).
std::string Normalize(std::string_view raw, const Alphabet& alphabet);

/// Normalize(raw, alphabet).size(), without building the string.
size_t NormalizedSize(std::string_view raw, const Alphabet& alphabet);

}  // namespace cbvlink

#endif  // CBVLINK_TEXT_NORMALIZE_H_
