#include "src/protocol/party.h"

#include "src/blocking/hb_index.h"
#include "src/common/thread_pool.h"
#include "src/io/serialization.h"

namespace cbvlink {

namespace {

/// Derives the shared encoder from the published parameters.  Every
/// party calls this with identical inputs, so the hash families — and
/// therefore the embeddings of equal strings — agree across custodians.
Result<CVectorRecordEncoder> SharedEncoder(
    const LinkageParameters& parameters) {
  Rng rng(parameters.hash_seed);
  return CVectorRecordEncoder::Create(parameters.schema,
                                      parameters.expected_qgrams, rng,
                                      parameters.sizing);
}

}  // namespace

Result<DataCustodian> DataCustodian::Create(
    std::string name, const LinkageParameters& parameters) {
  Result<CVectorRecordEncoder> encoder = SharedEncoder(parameters);
  if (!encoder.ok()) return encoder.status();
  return DataCustodian(std::move(name), std::move(encoder).value());
}

Result<std::vector<EncodedRecord>> DataCustodian::EncodeRecords(
    const std::vector<Record>& records,
    const ExecutionOptions& options) const {
  ExecutionContext ctx(options);
  return encoder_.EncodeAll(records, ctx.pool(), ctx.chunk_size_hint());
}

Status DataCustodian::ExportRecords(const std::vector<Record>& records,
                                    const std::string& path,
                                    const ExecutionOptions& options) const {
  Result<std::vector<EncodedRecord>> encoded =
      EncodeRecords(records, options);
  if (!encoded.ok()) return encoded.status();
  return WriteEncodedRecordsToFile(encoded.value(), path);
}

Result<LinkageUnit> LinkageUnit::Create(const LinkageParameters& parameters,
                                        Options options) {
  Result<CVectorRecordEncoder> encoder = SharedEncoder(parameters);
  if (!encoder.ok()) return encoder.status();
  CBVLINK_RETURN_NOT_OK(
      options.rule.Validate(parameters.schema.num_attributes()));
  return LinkageUnit(parameters, std::move(options),
                     encoder.value().layout());
}

Result<LinkageResultLite> LinkageUnit::LinkEncoded(
    const std::vector<EncodedRecord>& from_a,
    const std::vector<EncodedRecord>& from_b) {
  // Received vectors must carry the published width.
  for (const std::vector<EncodedRecord>* side : {&from_a, &from_b}) {
    for (const EncodedRecord& r : *side) {
      if (r.bits.size() != layout_.total_bits()) {
        return Status::InvalidArgument(
            "received embedding width differs from the published layout");
      }
    }
  }

  Rng rng(options_.seed);
  ExecutionContext ctx(options_.execution);
  Result<RecordLevelBlocker> blocker = RecordLevelBlocker::Create(
      layout_.total_bits(), options_.record_K, options_.record_theta,
      options_.delta, rng);
  if (!blocker.ok()) return blocker.status();
  // Received ids are not checked for uniqueness: a repeated id keeps its
  // first vector and slot (HbIndex::InsertAll).
  HbIndex index(std::move(blocker).value());
  index.InsertAll(from_a, ctx.pool(), ctx.chunk_size_hint());

  LinkageResultLite result;
  result.blocking_groups = index.blocking_groups();
  const PairClassifier classifier =
      MakeRuleClassifier(options_.rule, layout_);
  result.matches =
      index.matcher().MatchAll(from_b, classifier, &result.stats, ctx.pool());
  return result;
}

Result<LinkageResultLite> LinkageUnit::LinkFiles(const std::string& path_a,
                                                 const std::string& path_b) {
  Result<std::vector<EncodedRecord>> from_a =
      ReadEncodedRecordsFromFile(path_a);
  if (!from_a.ok()) return from_a.status();
  Result<std::vector<EncodedRecord>> from_b =
      ReadEncodedRecordsFromFile(path_b);
  if (!from_b.ok()) return from_b.status();
  return LinkEncoded(from_a.value(), from_b.value());
}

}  // namespace cbvlink
