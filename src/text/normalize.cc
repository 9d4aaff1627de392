#include "src/text/normalize.h"

namespace cbvlink {

namespace {

/// `c` with ASCII letters upper-cased.
char UpperAscii(char c) {
  return static_cast<unsigned char>(c - 'a') < 26
             ? static_cast<char>(c - 'a' + 'A')
             : c;
}

/// Whether normalization keeps the upper-cased byte `c`: the padding
/// character is reserved for the extractor, anything else must be a
/// symbol of `alphabet`.
bool Kept(char c, const Alphabet& alphabet) {
  return c != kPadChar && alphabet.Contains(c);
}

}  // namespace

std::string Normalize(std::string_view raw, const Alphabet& alphabet) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    c = UpperAscii(c);
    if (Kept(c, alphabet)) out.push_back(c);
  }
  return out;
}

size_t NormalizedSize(std::string_view raw, const Alphabet& alphabet) {
  size_t size = 0;
  for (const char c : raw) size += Kept(UpperAscii(c), alphabet);
  return size;
}

}  // namespace cbvlink
