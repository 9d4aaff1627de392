#include "src/linkage/cbv_hb_linker.h"

#include <algorithm>

#include "src/common/stopwatch.h"
#include "src/common/str.h"
#include "src/linkage/online_linker.h"

namespace cbvlink {

Status ValidateCbvHbConfig(const CbvHbConfig& config) {
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
  return Status::OK();
}

Result<CbvHbLinker> CbvHbLinker::Create(CbvHbConfig config) {
  CBVLINK_RETURN_NOT_OK(ValidateCbvHbConfig(config));
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
  CbvHbConfig config = config_;
  if (config.expected_qgrams.empty()) {
    if (a.empty()) {
      // The sizing estimate has nothing to sample from; an empty sample
      // would silently produce degenerate vector sizes.
      return Status::InvalidArgument(
          "data set A is empty; provide expected_qgrams");
    }
    // Charlie samples the records to estimate b^(f_i) (Section 5.2).
    std::vector<Record> sample;
    const size_t n = std::min(config.estimation_sample, a.size());
    sample.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      sample.push_back(a[a.size() <= config.estimation_sample
                             ? i
                             : rng.Below(a.size())]);
    }
    config.expected_qgrams = EstimateExpectedQGrams(config.schema, sample);
  }

  // The engine draws the encoder, then the blocker, from the same Rng.
  // It lives only for this call, so its arena and tables are freed
  // before Link returns; a copy of the encoder stays for encoder().
  Result<OnlineCbvHbLinker> engine_result =
      OnlineCbvHbLinker::Create(std::move(config), rng);
  if (!engine_result.ok()) return engine_result.status();
  OnlineCbvHbLinker& engine = engine_result.value();
  encoder_.emplace(engine.encoder());

  // --- Embedding A, then blocking ----------------------------------------
  // A's records are encoded straight into the engine's arena rows, over
  // the context's pool (byte-identical to serial).  A repeated id keeps
  // its first vector and slot, so every record carrying that id blocks
  // onto the first one's row.
  const double setup_seconds = watch.ElapsedSeconds();
  watch.Restart();
  double encode_a_seconds = 0.0;
  CBVLINK_RETURN_NOT_OK(engine.InsertRecords(a, ctx.pool(),
                                             ctx.chunk_size_hint(),
                                             &encode_a_seconds));
  result.embed_seconds = setup_seconds + encode_a_seconds;
  result.index_seconds = watch.ElapsedSeconds() - encode_a_seconds;
  result.blocking_groups = engine.blocking_groups();

  // --- Matching (Algorithm 2) --------------------------------------------
  // B streams through the pool in claimed chunks, each encoded into a
  // worker's row block and matched there; B is never held encoded.
  watch.Restart();
  Result<std::vector<IdPair>> matches = engine.MatchRecords(b, ctx.pool());
  if (!matches.ok()) return matches.status();
  result.matches = std::move(matches).value();
  result.stats = engine.stats();
  result.match_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace cbvlink
