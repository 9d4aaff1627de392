#include "src/embedding/bloom_filter.h"

namespace cbvlink {

Result<BloomFilterEncoder> BloomFilterEncoder::Create(
    QGramExtractor extractor, BloomFilterOptions options) {
  if (options.num_bits == 0) {
    return Status::InvalidArgument("Bloom filter size must be positive");
  }
  if (options.num_hashes == 0) {
    return Status::InvalidArgument("Bloom filter needs >= 1 hash function");
  }
  return BloomFilterEncoder(
      std::move(extractor),
      BloomHashFamily(options.num_hashes, options.num_bits, options.seed));
}

BitVector BloomFilterEncoder::Encode(std::string_view value) const {
  std::vector<uint64_t> words((vector_size() + 63) / 64, 0);
  EncodeInto(value, 0, words.data());
  return BitVector::FromWords(vector_size(), std::move(words));
}

void BloomFilterEncoder::EncodeInto(std::string_view value, size_t offset,
                                    uint64_t* words) const {
  extractor_.ForEachIndex(value, [&](uint64_t ind) {
    family_.ForEachPosition(
        ind, [&](size_t pos) { SetWordBit(words, offset + pos); });
  });
}

}  // namespace cbvlink
