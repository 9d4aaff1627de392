#include "src/linkage/bfh_linker.h"

#include "src/blocking/record_blocker.h"
#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"

namespace cbvlink {

Result<BfhLinker> BfhLinker::Create(BfhConfig config) {
  if (config.schema.num_attributes() == 0) {
    return Status::InvalidArgument("schema has no attributes");
  }
  CBVLINK_RETURN_NOT_OK(config.rule.Validate(config.schema.num_attributes()));
  if (config.K == 0) return Status::InvalidArgument("K must be positive");
  return BfhLinker(std::move(config));
}

Result<LinkageResult> BfhLinker::Link(const std::vector<Record>& a,
                                      const std::vector<Record>& b,
                                      const ExecutionOptions& options) {
  Rng rng(config_.seed);
  LinkageResult result;
  Stopwatch watch;
  ExecutionContext ctx(options);
  result.threads_used = ctx.threads_used();

  // --- Embedding ----------------------------------------------------------
  Result<BloomRecordEncoder> encoder =
      BloomRecordEncoder::Create(config_.schema, config_.bloom);
  if (!encoder.ok()) return encoder.status();

  Result<std::vector<EncodedRecord>> encoded_a_result =
      encoder.value().EncodeAll(a, ctx.pool(), ctx.chunk_size_hint());
  if (!encoded_a_result.ok()) return encoded_a_result.status();
  std::vector<EncodedRecord> encoded_a = std::move(encoded_a_result).value();
  Result<std::vector<EncodedRecord>> encoded_b_result =
      encoder.value().EncodeAll(b, ctx.pool(), ctx.chunk_size_hint());
  if (!encoded_b_result.ok()) return encoded_b_result.status();
  std::vector<EncodedRecord> encoded_b = std::move(encoded_b_result).value();
  result.embed_seconds = watch.ElapsedSeconds();

  // --- Blocking: standard record-level HB ---------------------------------
  // The arena first: its slots are what the blocking tables hold, and a
  // repeated id keeps its first vector and slot.
  watch.Restart();
  VectorStore store_a;
  std::vector<uint32_t> slots;
  store_a.AddAll(encoded_a, &slots);
  Result<RecordLevelBlocker> blocker =
      RecordLevelBlocker::Create(encoder.value().total_bits(), config_.K,
                                 config_.record_theta, config_.delta, rng);
  if (!blocker.ok()) return blocker.status();
  blocker.value().BulkInsert(encoded_a, slots, ctx.pool(),
                             ctx.chunk_size_hint());
  result.blocking_groups = blocker.value().L();
  result.index_seconds = watch.ElapsedSeconds();

  // --- Matching: attribute thresholds on filter segments ------------------
  watch.Restart();
  Matcher matcher(&blocker.value(), &store_a);
  const PairClassifier classifier =
      MakeRuleClassifier(config_.rule, encoder.value().layout());
  result.matches =
      matcher.MatchAll(encoded_b, classifier, &result.stats, ctx.pool());
  result.match_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace cbvlink
