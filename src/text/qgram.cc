#include "src/text/qgram.h"

#include <algorithm>

#include "src/common/str.h"
#include "src/text/normalize.h"

namespace cbvlink {

namespace {

void SortUnique(std::vector<uint64_t>* indexes) {
  std::sort(indexes->begin(), indexes->end());
  indexes->erase(std::unique(indexes->begin(), indexes->end()),
                 indexes->end());
}

}  // namespace

QGramExtractor::QGramExtractor(const Alphabet& alphabet, QGramOptions options,
                               uint64_t index_space)
    : alphabet_(&alphabet),
      options_(options),
      index_space_(index_space),
      lead_weight_(index_space / alphabet.size()) {
  // Normalize() maps each byte on its own, so its rules tabulate per byte.
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const std::string normalized = Normalize(std::string_view(&c, 1), alphabet);
    digit_[b] = static_cast<int16_t>(
        normalized.empty() ? -1 : alphabet.Order(normalized[0]));
  }
}

Result<QGramExtractor> QGramExtractor::Create(const Alphabet& alphabet,
                                              QGramOptions options) {
  if (options.q == 0) {
    return Status::InvalidArgument("q must be positive");
  }
  if (options.q > kMaxQ) {
    return Status::InvalidArgument(
        StrFormat("q=%zu exceeds the maximum of %zu", options.q, kMaxQ));
  }
  if (alphabet.size() == 0) {
    return Status::InvalidArgument("alphabet is empty");
  }
  if (options.pad && !alphabet.Contains(kPadChar)) {
    return Status::InvalidArgument(
        "padding requested but alphabet lacks the padding symbol '_'");
  }
  // Guard |S|^q against overflow: 64 bits comfortably hold every practical
  // configuration (q <= 12 even for the 39-symbol alphabet).
  uint64_t space = 1;
  for (size_t i = 0; i < options.q; ++i) {
    if (space > UINT64_MAX / alphabet.size()) {
      return Status::OutOfRange("|S|^q does not fit in 64 bits");
    }
    space *= alphabet.size();
  }
  return QGramExtractor(alphabet, options, space);
}

std::vector<std::string> QGramExtractor::Grams(
    std::string_view normalized) const {
  std::vector<std::string> grams;
  if (normalized.empty()) return grams;
  std::string padded(normalized);
  if (options_.pad) padded = kPadChar + padded + kPadChar;
  if (padded.size() < options_.q) return grams;
  grams.reserve(padded.size() - options_.q + 1);
  for (size_t i = 0; i + options_.q <= padded.size(); ++i) {
    grams.emplace_back(padded.substr(i, options_.q));
  }
  return grams;
}

Result<uint64_t> QGramExtractor::GramIndex(std::string_view gram) const {
  if (gram.size() != options_.q) {
    return Status::OutOfRange(
        StrFormat("gram length %zu != q=%zu", gram.size(), options_.q));
  }
  uint64_t ind = 0;
  for (char c : gram) {
    const int order = alphabet_->Order(c);
    if (order < 0) {
      return Status::OutOfRange(
          StrFormat("character 0x%02x outside alphabet",
                    static_cast<unsigned char>(c)));
    }
    ind = ind * alphabet_->size() + static_cast<uint64_t>(order);
  }
  return ind;
}

std::vector<uint64_t> QGramExtractor::IndexSet(
    std::string_view normalized) const {
  std::vector<uint64_t> indexes;
  indexes.reserve(CountGrams(normalized));
  ForEachIndex(normalized, [&](uint64_t ind) { indexes.push_back(ind); });
  SortUnique(&indexes);
  return indexes;
}

std::vector<uint64_t> QGramExtractor::RecordIndexSet(
    std::span<const std::string> values) const {
  std::vector<uint64_t> indexes;
  for (const std::string& value : values) {
    ForEachIndex(value, [&](uint64_t ind) { indexes.push_back(ind); });
  }
  SortUnique(&indexes);
  return indexes;
}

size_t QGramExtractor::CountGrams(std::string_view normalized) const {
  if (normalized.empty()) return 0;
  const size_t padded_len = normalized.size() + (options_.pad ? 2 : 0);
  return padded_len < options_.q ? 0 : padded_len - options_.q + 1;
}

}  // namespace cbvlink
