#include "src/embedding/record_encoder.h"

#include <mutex>

#include "src/common/str.h"
#include "src/common/thread_pool.h"
#include "src/telemetry/metrics.h"

namespace cbvlink {

namespace {

/// Shared batch-encode driver (both record encoders have the same
/// Encode() contract).  out[i] = Encode(records[i]); each slot is
/// written by exactly one chunk and chunk boundaries depend only on the
/// input size, the pool size, and `min_chunk`, so the output is
/// byte-identical to the serial loop at any thread count.
template <typename Encoder>
Result<std::vector<EncodedRecord>> EncodeAllImpl(
    const Encoder& encoder, std::span<const Record> records, ThreadPool* pool,
    size_t min_chunk) {
  telemetry::Registry& reg = telemetry::Registry::Global();
  telemetry::ScopedTimer timer(reg.GetHistogram("embed_batch_latency_us"));

  std::vector<EncodedRecord> out(records.size());
  // First failure by *chunk index* (not arrival order), so the reported
  // error does not depend on thread scheduling.
  std::mutex error_mu;
  size_t error_chunk = SIZE_MAX;
  Status first_error;
  const auto encode_range = [&](size_t chunk, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Result<EncodedRecord> enc = encoder.Encode(records[i]);
      if (!enc.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (chunk < error_chunk) {
          error_chunk = chunk;
          first_error = enc.status();
        }
        return;
      }
      out[i] = std::move(enc).value();
    }
  };

  if (pool == nullptr || pool->num_threads() <= 1 || records.size() <= 1) {
    encode_range(0, 0, records.size());
  } else {
    pool->ParallelFor(records.size(), min_chunk, encode_range);
  }
  if (!first_error.ok()) return first_error;
  reg.GetCounter("embed_records_total")->Add(records.size());
  return out;
}

/// InvalidArgument unless `record` has `num_attributes` fields.
Status CheckFieldCount(const Record& record, size_t num_attributes) {
  if (record.fields.size() == num_attributes) return Status::OK();
  return Status::InvalidArgument(
      StrFormat("record %llu has %zu fields, schema expects %zu",
                static_cast<unsigned long long>(record.id),
                record.fields.size(), num_attributes));
}

/// Shared row encode: each attribute encoder sets its bits at the
/// attribute's layout offset in the zeroed `row`.
template <typename AttributeEncoder>
Status EncodeRowImpl(const std::vector<AttributeEncoder>& encoders,
                     const RecordLayout& layout, const Record& record,
                     uint64_t* row) {
  CBVLINK_RETURN_NOT_OK(CheckFieldCount(record, encoders.size()));
  for (size_t i = 0; i < encoders.size(); ++i) {
    encoders[i].EncodeInto(record.fields[i], layout.segment(i).offset, row);
  }
  return Status::OK();
}

/// Shared single-record Encode(): one row, allocated once and handed to
/// the BitVector.
template <typename AttributeEncoder>
Result<EncodedRecord> EncodeRecordImpl(
    const std::vector<AttributeEncoder>& encoders, const RecordLayout& layout,
    const Record& record) {
  std::vector<uint64_t> words((layout.total_bits() + 63) / 64, 0);
  CBVLINK_RETURN_NOT_OK(EncodeRowImpl(encoders, layout, record, words.data()));
  return EncodedRecord{
      record.id, BitVector::FromWords(layout.total_bits(), std::move(words))};
}

}  // namespace

std::vector<double> EstimateExpectedQGrams(const Schema& schema,
                                           const std::vector<Record>& sample) {
  std::vector<double> sums(schema.num_attributes(), 0.0);
  std::vector<size_t> counts(schema.num_attributes(), 0);
  for (const Record& record : sample) {
    if (record.fields.size() < schema.num_attributes()) continue;
    for (size_t i = 0; i < schema.num_attributes(); ++i) {
      const AttributeSpec& spec = schema.attributes[i];
      const size_t normalized_size =
          NormalizedSize(record.fields[i], *spec.alphabet);
      const size_t padded_len =
          normalized_size == 0 ? 0
                               : normalized_size + (spec.qgram.pad ? 2 : 0);
      const size_t grams =
          padded_len < spec.qgram.q ? 0 : padded_len - spec.qgram.q + 1;
      sums[i] += static_cast<double>(grams);
      ++counts[i];
    }
  }
  std::vector<double> means(schema.num_attributes(), 0.0);
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (counts[i] > 0) means[i] = sums[i] / static_cast<double>(counts[i]);
  }
  return means;
}

Result<CVectorRecordEncoder> CVectorRecordEncoder::Create(
    const Schema& schema, const std::vector<double>& expected_qgrams,
    Rng& rng, const OptimalSizeOptions& options) {
  if (schema.num_attributes() == 0) {
    return Status::InvalidArgument("schema has no attributes");
  }
  if (expected_qgrams.size() != schema.num_attributes()) {
    return Status::InvalidArgument(
        StrFormat("expected_qgrams has %zu entries for %zu attributes",
                  expected_qgrams.size(), schema.num_attributes()));
  }
  std::vector<CVectorEncoder> encoders;
  encoders.reserve(schema.num_attributes());
  RecordLayout layout;
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    const AttributeSpec& spec = schema.attributes[i];
    Result<QGramExtractor> extractor =
        QGramExtractor::Create(*spec.alphabet, spec.qgram);
    if (!extractor.ok()) return extractor.status();
    Result<CVectorEncoder> encoder = CVectorEncoder::Create(
        std::move(extractor).value(), expected_qgrams[i], rng, options);
    if (!encoder.ok()) return encoder.status();
    layout.Add(encoder.value().vector_size());
    encoders.push_back(std::move(encoder).value());
  }
  return CVectorRecordEncoder(schema, std::move(encoders), std::move(layout));
}

Result<EncodedRecord> CVectorRecordEncoder::Encode(
    const Record& record) const {
  return EncodeRecordImpl(encoders_, layout_, record);
}

Status CVectorRecordEncoder::CheckRecord(const Record& record) const {
  return CheckFieldCount(record, encoders_.size());
}

Status CVectorRecordEncoder::EncodeRow(const Record& record,
                                       uint64_t* row) const {
  return EncodeRowImpl(encoders_, layout_, record, row);
}

Result<std::vector<EncodedRecord>> CVectorRecordEncoder::EncodeAll(
    std::span<const Record> records, ThreadPool* pool,
    size_t min_chunk) const {
  return EncodeAllImpl(*this, records, pool, min_chunk);
}

BitVector CVectorRecordEncoder::EncodeAttribute(
    size_t attr, std::string_view raw_value) const {
  return encoders_[attr].Encode(raw_value);
}

Result<BloomRecordEncoder> BloomRecordEncoder::Create(
    const Schema& schema, BloomFilterOptions options) {
  if (schema.num_attributes() == 0) {
    return Status::InvalidArgument("schema has no attributes");
  }
  std::vector<BloomFilterEncoder> encoders;
  encoders.reserve(schema.num_attributes());
  RecordLayout layout;
  for (const AttributeSpec& spec : schema.attributes) {
    Result<QGramExtractor> extractor =
        QGramExtractor::Create(*spec.alphabet, spec.qgram);
    if (!extractor.ok()) return extractor.status();
    Result<BloomFilterEncoder> encoder =
        BloomFilterEncoder::Create(std::move(extractor).value(), options);
    if (!encoder.ok()) return encoder.status();
    layout.Add(encoder.value().vector_size());
    encoders.push_back(std::move(encoder).value());
  }
  return BloomRecordEncoder(schema, std::move(encoders), std::move(layout));
}

Result<std::vector<EncodedRecord>> BloomRecordEncoder::EncodeAll(
    std::span<const Record> records, ThreadPool* pool,
    size_t min_chunk) const {
  return EncodeAllImpl(*this, records, pool, min_chunk);
}

Result<EncodedRecord> BloomRecordEncoder::Encode(const Record& record) const {
  return EncodeRecordImpl(encoders_, layout_, record);
}

}  // namespace cbvlink
