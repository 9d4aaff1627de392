#include "src/linkage/cbv_hb_linker.h"

#include <algorithm>

#include "src/blocking/attribute_blocker.h"
#include "src/blocking/record_blocker.h"
#include "src/common/stopwatch.h"
#include "src/common/str.h"
#include "src/common/thread_pool.h"

namespace cbvlink {

Result<CbvHbLinker> CbvHbLinker::Create(CbvHbConfig config) {
  if (config.schema.num_attributes() == 0) {
    return Status::InvalidArgument("schema has no attributes");
  }
  CBVLINK_RETURN_NOT_OK(config.rule.Validate(config.schema.num_attributes()));
  if (config.attribute_level_blocking &&
      config.attribute_K.size() != config.schema.num_attributes()) {
    return Status::InvalidArgument(
        StrFormat("attribute-level blocking needs %zu K values, got %zu",
                  config.schema.num_attributes(),
                  config.attribute_K.size()));
  }
  if (!config.expected_qgrams.empty() &&
      config.expected_qgrams.size() != config.schema.num_attributes()) {
    return Status::InvalidArgument("expected_qgrams size mismatch");
  }
  return CbvHbLinker(std::move(config));
}

Result<LinkageResult> CbvHbLinker::Link(const std::vector<Record>& a,
                                        const std::vector<Record>& b,
                                        const ExecutionOptions& options) {
  Rng rng(config_.seed);
  LinkageResult result;
  Stopwatch watch;

  // One execution context for every parallel stage (embedding, index
  // build, matching); pool() is null when the run resolves serial.
  ExecutionContext ctx(options);
  result.threads_used = ctx.threads_used();

  // --- Embedding ---------------------------------------------------------
  std::vector<double> expected = config_.expected_qgrams;
  if (expected.empty()) {
    if (a.empty()) {
      // The sizing estimate has nothing to sample from; an empty sample
      // would silently produce degenerate vector sizes.
      return Status::InvalidArgument(
          "data set A is empty; provide expected_qgrams");
    }
    // Charlie samples the records to estimate b^(f_i) (Section 5.2).
    std::vector<Record> sample;
    const size_t n = std::min(config_.estimation_sample, a.size());
    sample.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      sample.push_back(a[a.size() <= config_.estimation_sample
                             ? i
                             : rng.Below(a.size())]);
    }
    expected = EstimateExpectedQGrams(config_.schema, sample);
  }

  Result<CVectorRecordEncoder> encoder = CVectorRecordEncoder::Create(
      config_.schema, expected, rng, config_.sizing);
  if (!encoder.ok()) return encoder.status();
  encoder_.emplace(std::move(encoder).value());

  // Embedding is embarrassingly parallel over records; EncodeAll shards
  // both data sets over the context's pool (byte-identical to serial).
  Result<std::vector<EncodedRecord>> encoded_a_result =
      encoder_->EncodeAll(a, ctx.pool(), ctx.chunk_size_hint());
  if (!encoded_a_result.ok()) return encoded_a_result.status();
  std::vector<EncodedRecord> encoded_a = std::move(encoded_a_result).value();
  Result<std::vector<EncodedRecord>> encoded_b_result =
      encoder_->EncodeAll(b, ctx.pool(), ctx.chunk_size_hint());
  if (!encoded_b_result.ok()) return encoded_b_result.status();
  std::vector<EncodedRecord> encoded_b = std::move(encoded_b_result).value();
  result.embed_seconds = watch.ElapsedSeconds();

  // --- Blocking ----------------------------------------------------------
  // The arena first: its slots are what the blocking tables hold.  A
  // repeated id keeps its first vector and slot, so every record carrying
  // that id blocks onto the first one's row.
  watch.Restart();
  VectorStore store_a;
  std::vector<uint32_t> slots;
  store_a.AddAll(encoded_a, &slots);
  std::optional<RecordLevelBlocker> record_blocker;
  std::optional<AttributeLevelBlocker> attribute_blocker;
  const CandidateSource* source = nullptr;

  if (config_.attribute_level_blocking) {
    AttributeBlockerOptions options;
    options.attribute_K = config_.attribute_K;
    options.delta = config_.delta;
    Result<AttributeLevelBlocker> blocker = AttributeLevelBlocker::Create(
        config_.rule, encoder_->layout(), options, rng);
    if (!blocker.ok()) return blocker.status();
    attribute_blocker.emplace(std::move(blocker).value());
    attribute_blocker->BulkInsert(encoded_a, slots, ctx.pool(),
                                  ctx.chunk_size_hint());
    for (size_t s = 0; s < attribute_blocker->num_structures(); ++s) {
      result.blocking_groups += attribute_blocker->structure_L(s);
    }
    source = &*attribute_blocker;
  } else {
    Result<RecordLevelBlocker> blocker =
        RecordLevelBlocker::Create(encoder_->total_bits(), config_.record_K,
                                   config_.record_theta, config_.delta, rng);
    if (!blocker.ok()) return blocker.status();
    record_blocker.emplace(std::move(blocker).value());
    record_blocker->BulkInsert(encoded_a, slots, ctx.pool(),
                               ctx.chunk_size_hint());
    result.blocking_groups = record_blocker->L();
    source = &*record_blocker;
  }

  result.index_seconds = watch.ElapsedSeconds();

  // --- Matching (Algorithm 2) --------------------------------------------
  watch.Restart();
  Matcher matcher(source, &store_a);
  const PairClassifier classifier =
      MakeRuleClassifier(config_.rule, encoder_->layout());
  result.matches =
      matcher.MatchAll(encoded_b, classifier, &result.stats, ctx.pool());
  result.match_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace cbvlink
