#include "src/embedding/cvector.h"

namespace cbvlink {

static_assert(kHashPrime <= uint64_t{1} << 32,
              "g's values must fit the gram -> bit table's entries");

CVectorEncoder::CVectorEncoder(QGramExtractor extractor, PairwiseHash hash)
    : extractor_(std::move(extractor)), hash_(hash) {
  const uint64_t space = extractor_.IndexSpaceSize();
  if (space > kMaxTableEntries) return;
  bit_of_gram_.resize(static_cast<size_t>(space));
  for (uint64_t x = 0; x < space; ++x) {
    bit_of_gram_[x] = static_cast<uint32_t>(hash_(x));
  }
}

Result<CVectorEncoder> CVectorEncoder::Create(
    QGramExtractor extractor, double expected_qgrams, Rng& rng,
    const OptimalSizeOptions& options) {
  Result<size_t> m = OptimalCVectorSize(expected_qgrams, options);
  if (!m.ok()) return m.status();
  return CreateWithSize(std::move(extractor), m.value(), rng);
}

Result<CVectorEncoder> CVectorEncoder::CreateWithSize(QGramExtractor extractor,
                                                      size_t m, Rng& rng) {
  if (m == 0) {
    return Status::InvalidArgument("c-vector size m must be positive");
  }
  return CVectorEncoder(std::move(extractor), PairwiseHash::Random(rng, m));
}

BitVector CVectorEncoder::Encode(std::string_view value) const {
  std::vector<uint64_t> words((vector_size() + 63) / 64, 0);
  EncodeInto(value, 0, words.data());
  return BitVector::FromWords(vector_size(), std::move(words));
}

void CVectorEncoder::EncodeInto(std::string_view value, size_t offset,
                                uint64_t* words) const {
  if (!bit_of_gram_.empty()) {
    // ForEachIndex emits indexes below |S|^q, the table's size.
    const uint32_t* bit_of_gram = bit_of_gram_.data();
    extractor_.ForEachIndex(value, [&](uint64_t ind) {
      SetWordBit(words, offset + bit_of_gram[ind]);
    });
    return;
  }
  extractor_.ForEachIndex(value, [&](uint64_t ind) {
    SetWordBit(words, offset + static_cast<size_t>(hash_(ind)));
  });
}

}  // namespace cbvlink
