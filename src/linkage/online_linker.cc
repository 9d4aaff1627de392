#include "src/linkage/online_linker.h"

#include "src/common/str.h"

namespace cbvlink {

Result<OnlineCbvHbLinker> OnlineCbvHbLinker::Create(
    CbvHbConfig config, const std::vector<Record>& calibration_sample) {
  // Reuse CbvHbLinker's validation rules.
  {
    CbvHbConfig copy = config;
    Result<CbvHbLinker> check = CbvHbLinker::Create(std::move(copy));
    if (!check.ok()) return check.status();
  }

  std::vector<double> expected = config.expected_qgrams;
  if (expected.empty()) {
    if (calibration_sample.empty()) {
      return Status::InvalidArgument(
          "online linker needs expected_qgrams or a calibration sample");
    }
    expected = EstimateExpectedQGrams(config.schema, calibration_sample);
  }

  OnlineCbvHbLinker linker;
  Rng rng(config.seed);
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      config.schema, expected, rng, config.sizing);
  if (!encoder.ok()) return encoder.status();
  linker.encoder_.emplace(std::move(encoder).value());

  if (config.attribute_level_blocking) {
    AttributeBlockerOptions options;
    options.attribute_K = config.attribute_K;
    options.delta = config.delta;
    Result<AttributeLevelBlocker> blocker = AttributeLevelBlocker::Create(
        config.rule, linker.encoder_->layout(), options, rng);
    if (!blocker.ok()) return blocker.status();
    linker.attribute_blocker_.emplace(std::move(blocker).value());
    for (size_t s = 0; s < linker.attribute_blocker_->num_structures(); ++s) {
      linker.blocking_groups_ += linker.attribute_blocker_->structure_L(s);
    }
  } else {
    Result<RecordLevelBlocker> blocker = RecordLevelBlocker::Create(
        linker.encoder_->total_bits(), config.record_K, config.record_theta,
        config.delta, rng);
    if (!blocker.ok()) return blocker.status();
    linker.record_blocker_.emplace(std::move(blocker).value());
    linker.blocking_groups_ = linker.record_blocker_->L();
  }

  linker.classifier_ =
      MakeRuleClassifier(config.rule, linker.encoder_->layout());
  linker.config_ = std::move(config);
  return linker;
}

Result<EncodedRecord> OnlineCbvHbLinker::Encode(const Record& record) const {
  return encoder_->Encode(record);
}

Status OnlineCbvHbLinker::Insert(const Record& record) {
  Result<EncodedRecord> encoded = Encode(record);
  if (!encoded.ok()) return encoded.status();
  Index(encoded.value());
  return Status::OK();
}

void OnlineCbvHbLinker::Index(const EncodedRecord& encoded) {
  const uint32_t slot = store_.Add(encoded);
  if (attribute_blocker_.has_value()) {
    attribute_blocker_->Insert(encoded, slot);
  } else {
    record_blocker_->Insert(encoded, slot);
  }
}

Status OnlineCbvHbLinker::InsertBatch(const std::vector<Record>& records,
                                      const ExecutionOptions& options) {
  ExecutionContext ctx(options);
  Result<std::vector<EncodedRecord>> encoded =
      encoder_->EncodeAll(records, ctx.pool(), ctx.chunk_size_hint());
  if (!encoded.ok()) return encoded.status();
  std::vector<uint32_t> slots;
  store_.AddAll(encoded.value(), &slots);
  if (attribute_blocker_.has_value()) {
    attribute_blocker_->BulkInsert(encoded.value(), slots, ctx.pool(),
                                   ctx.chunk_size_hint());
  } else {
    record_blocker_->BulkInsert(encoded.value(), slots, ctx.pool(),
                                ctx.chunk_size_hint());
  }
  return Status::OK();
}

Status OnlineCbvHbLinker::Match(const Record& record,
                                std::vector<IdPair>* out) {
  Result<EncodedRecord> encoded = Encode(record);
  if (!encoded.ok()) return encoded.status();
  Matcher matcher(&source(), &store_);
  matcher.MatchOne(encoded.value(), classifier_, out, &stats_, &scratch_);
  return Status::OK();
}

Status OnlineCbvHbLinker::MatchAndInsert(const Record& record,
                                         std::vector<IdPair>* out) {
  CBVLINK_RETURN_NOT_OK(Match(record, out));
  return Insert(record);
}

Status OnlineCbvHbLinker::MatchAndInsertEncoded(const EncodedRecord& encoded,
                                                std::vector<IdPair>* out) {
  if (encoded.bits.size() != encoder_->total_bits()) {
    return Status::InvalidArgument(
        StrFormat("encoded record is %zu bits; this stream's encoder "
                  "produces %zu",
                  encoded.bits.size(), encoder_->total_bits()));
  }
  Matcher matcher(&source(), &store_);
  matcher.MatchOne(encoded, classifier_, out, &stats_, &scratch_);
  Index(encoded);
  return Status::OK();
}

}  // namespace cbvlink
