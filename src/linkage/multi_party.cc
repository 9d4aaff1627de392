#include "src/linkage/multi_party.h"

#include <unordered_map>

#include "src/common/str.h"

namespace cbvlink {

namespace {

/// Packs (party, record-id) into one 64-bit key for the blocking tables.
/// 16 bits of party leave 48 bits of record id — plenty for any realistic
/// custodian count and set size.
uint64_t GlobalId(PartyId party, RecordId id) {
  return (static_cast<uint64_t>(party) << 48) | (id & ((uint64_t{1} << 48) - 1));
}

PartyId PartyOf(uint64_t global_id) {
  return static_cast<PartyId>(global_id >> 48);
}

RecordId LocalOf(uint64_t global_id) {
  return global_id & ((uint64_t{1} << 48) - 1);
}

}  // namespace

Result<MultiPartyLinker> MultiPartyLinker::Create(MultiPartyConfig config) {
  if (config.schema.num_attributes() == 0) {
    return Status::InvalidArgument("schema has no attributes");
  }
  CBVLINK_RETURN_NOT_OK(config.rule.Validate(config.schema.num_attributes()));
  if (config.record_K == 0) {
    return Status::InvalidArgument("K must be positive");
  }
  return MultiPartyLinker(std::move(config));
}

Result<MultiPartyResult> MultiPartyLinker::Link(
    const std::vector<std::vector<Record>>& parties) {
  if (parties.size() < 2) {
    return Status::InvalidArgument(
        StrFormat("multi-party linkage needs >= 2 parties, got %zu",
                  parties.size()));
  }
  for (size_t p = 0; p < parties.size(); ++p) {
    if (parties[p].empty()) {
      return Status::InvalidArgument(StrFormat("party %zu is empty", p));
    }
    if (parties[p].size() >= (uint64_t{1} << 48)) {
      return Status::OutOfRange("party too large for 48-bit record ids");
    }
  }
  if (parties.size() >= (uint64_t{1} << 16)) {
    return Status::OutOfRange("too many parties for 16-bit party ids");
  }

  Rng rng(config_.seed);

  // Shared encoders so identical values collide across custodians.
  std::vector<double> expected = config_.expected_qgrams;
  if (expected.empty()) {
    std::vector<Record> sample;
    const size_t n = std::min(config_.estimation_sample, parties[0].size());
    sample.reserve(n);
    for (size_t i = 0; i < n; ++i) sample.push_back(parties[0][i]);
    expected = EstimateExpectedQGrams(config_.schema, sample);
  }
  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      config_.schema, expected, rng, config_.sizing);
  if (!encoder.ok()) return encoder.status();

  Result<RecordLevelBlocker> blocker = RecordLevelBlocker::Create(
      encoder.value().total_bits(), config_.record_K, config_.record_theta,
      config_.delta, rng);
  if (!blocker.ok()) return blocker.status();

  MultiPartyResult result;
  result.blocking_groups = blocker.value().L();

  VectorStore store;
  Matcher matcher(&blocker.value(), &store);
  const PairClassifier classifier =
      MakeRuleClassifier(config_.rule, encoder.value().layout());

  // Incremental pass: probe each party against everything indexed so far,
  // then index it.  Every cross-party pair is considered exactly once.
  for (PartyId p = 0; p < parties.size(); ++p) {
    std::vector<EncodedRecord> encoded;
    encoded.reserve(parties[p].size());
    for (const Record& record : parties[p]) {
      Result<EncodedRecord> enc = encoder.value().Encode(record);
      if (!enc.ok()) return enc.status();
      EncodedRecord tagged = std::move(enc).value();
      tagged.id = GlobalId(p, record.id);
      encoded.push_back(std::move(tagged));
    }
    if (p > 0) {
      std::vector<IdPair> found;
      for (const EncodedRecord& probe : encoded) {
        matcher.MatchOne(probe, classifier, &found, &result.stats);
      }
      for (const IdPair& pair : found) {
        // a_id is the earlier-indexed record; b_id the probing one.
        result.matches.push_back(MultiPartyMatch{
            PartyOf(pair.a_id), LocalOf(pair.a_id), p, LocalOf(pair.b_id)});
      }
    }
    std::vector<uint32_t> slots;
    store.AddAll(encoded, &slots);
    blocker.value().BulkInsert(encoded, slots);
  }
  return result;
}

}  // namespace cbvlink
