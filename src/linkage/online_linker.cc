#include "src/linkage/online_linker.h"

#include "src/common/str.h"

namespace cbvlink {

Status ResolveExpectedQGrams(CbvHbConfig* config,
                             const std::vector<Record>& calibration_sample) {
  CBVLINK_RETURN_NOT_OK(ValidateCbvHbConfig(*config));
  if (!config->expected_qgrams.empty()) return Status::OK();
  if (calibration_sample.empty()) {
    return Status::InvalidArgument(
        "cBV-HB needs expected_qgrams or a calibration sample");
  }
  config->expected_qgrams =
      EstimateExpectedQGrams(config->schema, calibration_sample);
  return Status::OK();
}

Result<CbvHbParts> MakeCbvHbParts(const CbvHbConfig& config, Rng& rng) {
  CBVLINK_RETURN_NOT_OK(ValidateCbvHbConfig(config));
  if (config.expected_qgrams.empty()) {
    return Status::InvalidArgument(
        "the cBV-HB engine needs expected_qgrams to size its encoder");
  }
  // The draw order — encoder, then blocker — is fixed: every pair list
  // and snapshot depends on it.
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      config.schema, config.expected_qgrams, rng, config.sizing);
  if (!encoder.ok()) return encoder.status();
  const RecordLayout& layout = encoder.value().layout();
  PairClassifier classifier = MakeRuleClassifier(config.rule, layout);

  Result<HbBlocker> blocker =
      config.attribute_level_blocking
          ? HbBlocker::Create(
                config.rule, layout,
                AttributeBlockerOptions{config.attribute_K, config.delta}, rng)
          : HbBlocker::Create(encoder.value().total_bits(), config.record_K,
                              config.record_theta, config.delta, rng);
  if (!blocker.ok()) return blocker.status();
  return CbvHbParts{std::move(encoder).value(),
                    HbIndex(std::move(blocker).value()),
                    std::move(classifier)};
}

Result<OnlineCbvHbLinker> OnlineCbvHbLinker::Create(
    CbvHbConfig config, const std::vector<Record>& calibration_sample) {
  CBVLINK_RETURN_NOT_OK(ResolveExpectedQGrams(&config, calibration_sample));
  Rng rng(config.seed);
  return Create(std::move(config), rng);
}

Result<OnlineCbvHbLinker> OnlineCbvHbLinker::Create(CbvHbConfig config,
                                                    Rng& rng) {
  Result<CbvHbParts> parts = MakeCbvHbParts(config, rng);
  if (!parts.ok()) return parts.status();
  return OnlineCbvHbLinker(std::move(parts).value());
}

Status OnlineCbvHbLinker::CheckWidth(const EncodedRecord& encoded) const {
  if (encoded.bits.size() == encoder_.total_bits()) return Status::OK();
  return Status::InvalidArgument(
      StrFormat("encoded record is %zu bits; this stream's encoder "
                "produces %zu",
                encoded.bits.size(), encoder_.total_bits()));
}

Status OnlineCbvHbLinker::Insert(const Record& record) {
  Result<EncodedRecord> encoded = encoder_.Encode(record);
  if (!encoded.ok()) return encoded.status();
  index_.Insert(encoded.value());
  return Status::OK();
}

Status OnlineCbvHbLinker::InsertBatch(const std::vector<Record>& records,
                                      const ExecutionOptions& options) {
  ExecutionContext ctx(options);
  Result<std::vector<EncodedRecord>> encoded =
      encoder_.EncodeAll(records, ctx.pool(), ctx.chunk_size_hint());
  if (!encoded.ok()) return encoded.status();
  return InsertEncoded(encoded.value(), ctx.pool(), ctx.chunk_size_hint());
}

Status OnlineCbvHbLinker::InsertEncoded(
    const std::vector<EncodedRecord>& records, ThreadPool* pool,
    size_t min_chunk) {
  for (const EncodedRecord& record : records) {
    CBVLINK_RETURN_NOT_OK(CheckWidth(record));
  }
  index_.InsertAll(records, pool, min_chunk);
  return Status::OK();
}

Status OnlineCbvHbLinker::Match(const Record& record,
                                std::vector<IdPair>* out) {
  Result<EncodedRecord> encoded = encoder_.Encode(record);
  if (!encoded.ok()) return encoded.status();
  return MatchEncoded(encoded.value(), out);
}

Status OnlineCbvHbLinker::MatchEncoded(const EncodedRecord& encoded,
                                       std::vector<IdPair>* out) {
  CBVLINK_RETURN_NOT_OK(CheckWidth(encoded));
  index_.matcher().MatchOne(encoded, classifier_, out, &stats_);
  return Status::OK();
}

Result<std::vector<IdPair>> OnlineCbvHbLinker::MatchAll(
    const std::vector<EncodedRecord>& records, ThreadPool* pool) {
  for (const EncodedRecord& record : records) {
    CBVLINK_RETURN_NOT_OK(CheckWidth(record));
  }
  return index_.matcher().MatchAll(records, classifier_, &stats_, pool);
}

Status OnlineCbvHbLinker::MatchAndInsert(const Record& record,
                                         std::vector<IdPair>* out) {
  Result<EncodedRecord> encoded = encoder_.Encode(record);
  if (!encoded.ok()) return encoded.status();
  return MatchAndInsertEncoded(encoded.value(), out);
}

Status OnlineCbvHbLinker::MatchAndInsertEncoded(const EncodedRecord& encoded,
                                                std::vector<IdPair>* out) {
  CBVLINK_RETURN_NOT_OK(MatchEncoded(encoded, out));
  index_.Insert(encoded);
  return Status::OK();
}

}  // namespace cbvlink
