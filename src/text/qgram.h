// q-gram extraction and Algorithm 1 index mapping.
//
// A q-gram is a group of q consecutive characters of a (padded) string.
// The bijection F of Section 4.1 maps each q-gram to the integer obtained
// by reading its characters as base-|S| digits (Algorithm 1):
//
//   ind = sum_{i=1..q} ord(gr[i]) * |S|^(q-i)
//
// The set of indexes U_s of a string s tells which positions of a q-gram
// vector are set, and is the input to every embedding in the library.
//
// Every embedding reads those indexes through ForEachIndex(), one pass over
// the raw attribute value that normalizes, pads and indexes on the fly
// without building any string or vector.  Grams() and GramIndex() spell the
// same steps out one at a time; they are the readable reference the pass is
// tested against.

#ifndef CBVLINK_TEXT_QGRAM_H_
#define CBVLINK_TEXT_QGRAM_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/text/alphabet.h"

namespace cbvlink {

/// Options controlling q-gram extraction.
struct QGramOptions {
  /// The q of q-grams; 2 (bigrams) everywhere in the paper's evaluation.
  size_t q = 2;
  /// Pad the string with kPadChar on both ends so every character appears
  /// in exactly q q-grams (footnote 4: 'JONES' -> '_JONES_').
  bool pad = true;
};

/// Extracts q-grams from normalized strings and maps them to indexes.
class QGramExtractor {
 public:
  /// The largest supported q.  Bounds the rolling window of ForEachIndex()
  /// and, for a one-symbol alphabet (whose |S|^q never overflows), the
  /// work Create() does on an untrusted q.
  static constexpr size_t kMaxQ = 64;

  /// Creates an extractor.  If `options.pad` is set, `alphabet` must
  /// contain kPadChar.  Returns InvalidArgument for q == 0, q > kMaxQ, an
  /// empty alphabet or a missing padding symbol, and OutOfRange when |S|^q
  /// does not fit in 64 bits.
  static Result<QGramExtractor> Create(const Alphabet& alphabet,
                                       QGramOptions options);

  /// The single encoding pass.  Walks `value` once and calls
  /// `emit(uint64_t index)` with the Algorithm 1 index of every q-gram
  /// occurrence, in order, repeats included.  Normalize()'s rules are
  /// applied on the fly (ASCII lower case is upper-cased; kPadChar and
  /// symbols outside the alphabet are dropped), and with pad() a padding
  /// symbol is added at both ends of a non-empty result.  So for every
  /// `value` the emitted sequence equals GramIndex() over
  /// Grams(Normalize(value, alphabet())).  Allocates nothing.
  template <typename Emit>
  void ForEachIndex(std::string_view value, Emit&& emit) const;

  /// The q-grams of `normalized`, in order of occurrence (may repeat).
  /// A string shorter than q without padding yields no q-grams.
  std::vector<std::string> Grams(std::string_view normalized) const;

  /// Algorithm 1: the index of a single q-gram.  Returns OutOfRange if the
  /// gram's length differs from q or it contains a symbol outside the
  /// alphabet.
  Result<uint64_t> GramIndex(std::string_view gram) const;

  /// The set U_s: sorted, de-duplicated indexes of all q-grams of
  /// `normalized`.
  std::vector<uint64_t> IndexSet(std::string_view normalized) const;

  /// The union of the index sets of `values` in one shared index space,
  /// sorted and de-duplicated — the record-level set HARRA and canopy
  /// blocking compare by Jaccard distance.  Values may be raw: each is
  /// normalized on the fly, as by ForEachIndex().
  std::vector<uint64_t> RecordIndexSet(
      std::span<const std::string> values) const;

  /// Number of q-grams of `normalized` counted with multiplicity — the
  /// quantity averaged into b^(f_i) in Table 3.
  size_t CountGrams(std::string_view normalized) const;

  /// Index-space size |S|^q (the m of full q-gram vectors).
  uint64_t IndexSpaceSize() const { return index_space_; }

  size_t q() const { return options_.q; }
  bool pad() const { return options_.pad; }
  const Alphabet& alphabet() const { return *alphabet_; }

 private:
  QGramExtractor(const Alphabet& alphabet, QGramOptions options,
                 uint64_t index_space);

  const Alphabet* alphabet_;
  QGramOptions options_;
  uint64_t index_space_;
  /// |S|^(q-1): the weight of the digit leaving the rolling window.
  uint64_t lead_weight_;
  /// Digit of each raw byte after Normalize()'s rules, or -1 when
  /// normalization drops the byte.
  std::array<int16_t, 256> digit_;
};

template <typename Emit>
void QGramExtractor::ForEachIndex(std::string_view value, Emit&& emit) const {
  const size_t q = options_.q;
  const uint64_t base = alphabet_->size();
  // The last q digits, as a ring whose next slot holds the oldest one.
  // Subtracting that digit's weight before shifting keeps `ind` below
  // |S|^q, which Create() proved fits in 64 bits.
  std::array<uint8_t, kMaxQ> window{};
  size_t slot = 0;
  size_t filled = 0;
  uint64_t ind = 0;
  const auto push = [&](uint8_t digit) {
    if (filled == q) {
      ind = (ind - lead_weight_ * window[slot]) * base + digit;
    } else {
      ind = ind * base + digit;
      ++filled;
    }
    window[slot] = digit;
    if (++slot == q) slot = 0;
    if (filled == q) emit(ind);
  };
  bool started = false;
  for (const char c : value) {
    const int16_t digit = digit_[static_cast<unsigned char>(c)];
    if (digit < 0) continue;
    if (!started) {
      started = true;
      if (options_.pad) push(static_cast<uint8_t>(alphabet_->Order(kPadChar)));
    }
    push(static_cast<uint8_t>(digit));
  }
  if (started && options_.pad) {
    push(static_cast<uint8_t>(alphabet_->Order(kPadChar)));
  }
}

}  // namespace cbvlink

#endif  // CBVLINK_TEXT_QGRAM_H_
