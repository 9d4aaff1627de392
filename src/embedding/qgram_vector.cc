#include "src/embedding/qgram_vector.h"

#include "src/common/str.h"

namespace cbvlink {

Result<QGramVectorEncoder> QGramVectorEncoder::Create(
    QGramExtractor extractor) {
  constexpr uint64_t kMaxBits = uint64_t{1} << 26;
  const uint64_t space = extractor.IndexSpaceSize();
  if (space > kMaxBits) {
    return Status::OutOfRange(
        StrFormat("|S|^q = %llu exceeds the %llu-bit materialization cap",
                  static_cast<unsigned long long>(space),
                  static_cast<unsigned long long>(kMaxBits)));
  }
  return QGramVectorEncoder(std::move(extractor),
                            static_cast<size_t>(space));
}

BitVector QGramVectorEncoder::Encode(std::string_view value) const {
  BitVector bv(vector_size_);
  EncodeInto(value, 0, &bv);
  return bv;
}

void QGramVectorEncoder::EncodeInto(std::string_view value, size_t offset,
                                    BitVector* out) const {
  extractor_.ForEachIndex(
      value, [&](uint64_t ind) { out->Set(offset + static_cast<size_t>(ind)); });
}

}  // namespace cbvlink
