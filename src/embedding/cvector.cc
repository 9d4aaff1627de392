#include "src/embedding/cvector.h"

namespace cbvlink {

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
  BitVector bv(vector_size());
  EncodeInto(value, 0, &bv);
  return bv;
}

void CVectorEncoder::EncodeInto(std::string_view value, size_t offset,
                                BitVector* out) const {
  extractor_.ForEachIndex(value, [&](uint64_t ind) {
    out->Set(offset + static_cast<size_t>(hash_(ind)));
  });
}

}  // namespace cbvlink
