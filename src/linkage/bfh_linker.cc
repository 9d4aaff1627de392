#include "src/linkage/bfh_linker.h"

#include "src/blocking/hb_index.h"
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
  // A repeated id keeps its first vector and slot (HbIndex::InsertAll).
  watch.Restart();
  Result<HbBlocker> blocker =
      HbBlocker::Create(encoder.value().total_bits(), config_.K,
                        config_.record_theta, config_.delta, rng);
  if (!blocker.ok()) return blocker.status();
  HbIndex index(std::move(blocker).value());
  index.InsertAll(encoded_a, ctx.pool(), ctx.chunk_size_hint());
  result.blocking_groups = index.blocking_groups();
  result.index_seconds = watch.ElapsedSeconds();

  // --- Matching: attribute thresholds on filter segments ------------------
  watch.Restart();
  const PairClassifier classifier =
      MakeRuleClassifier(config_.rule, encoder.value().layout());
  result.matches = index.matcher().MatchAll(encoded_b, classifier,
                                            &result.stats, ctx.pool());
  result.match_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace cbvlink
