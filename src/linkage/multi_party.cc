#include "src/linkage/multi_party.h"

#include <algorithm>

#include "src/common/str.h"
#include "src/linkage/online_linker.h"

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

/// The engine configuration: MultiPartyConfig is CbvHbConfig's
/// record-level mode.
CbvHbConfig EngineConfig(const MultiPartyConfig& config) {
  CbvHbConfig engine;
  engine.schema = config.schema;
  engine.rule = config.rule;
  engine.record_K = config.record_K;
  engine.record_theta = config.record_theta;
  engine.delta = config.delta;
  engine.sizing = config.sizing;
  engine.expected_qgrams = config.expected_qgrams;
  engine.estimation_sample = config.estimation_sample;
  engine.seed = config.seed;
  return engine;
}

}  // namespace

Result<MultiPartyLinker> MultiPartyLinker::Create(MultiPartyConfig config) {
  CBVLINK_RETURN_NOT_OK(ValidateCbvHbConfig(EngineConfig(config)));
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

  // One engine, so identical values collide across custodians; party 0's
  // first records size its encoders.
  std::vector<Record> sample;
  if (config_.expected_qgrams.empty()) {
    const size_t n = std::min(config_.estimation_sample, parties[0].size());
    sample.assign(parties[0].begin(), parties[0].begin() + n);
  }
  Result<OnlineCbvHbLinker> engine_result =
      OnlineCbvHbLinker::Create(EngineConfig(config_), sample);
  if (!engine_result.ok()) return engine_result.status();
  OnlineCbvHbLinker& engine = engine_result.value();

  MultiPartyResult result;
  result.blocking_groups = engine.blocking_groups();

  // Incremental pass: probe each party against everything indexed so far,
  // then index it.  Every cross-party pair is considered exactly once.
  for (PartyId p = 0; p < parties.size(); ++p) {
    Result<std::vector<EncodedRecord>> encoded =
        engine.encoder().EncodeAll(parties[p]);
    if (!encoded.ok()) return encoded.status();
    for (EncodedRecord& record : encoded.value()) {
      record.id = GlobalId(p, record.id);
    }
    if (p > 0) {
      Result<std::vector<IdPair>> found = engine.MatchAll(encoded.value());
      if (!found.ok()) return found.status();
      for (const IdPair& pair : found.value()) {
        // a_id is the earlier-indexed record; b_id the probing one.
        result.matches.push_back(MultiPartyMatch{
            PartyOf(pair.a_id), LocalOf(pair.a_id), p, LocalOf(pair.b_id)});
      }
    }
    CBVLINK_RETURN_NOT_OK(engine.InsertEncoded(encoded.value()));
  }
  result.stats = engine.stats();
  return result;
}

}  // namespace cbvlink
