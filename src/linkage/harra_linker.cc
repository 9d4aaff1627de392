#include "src/linkage/harra_linker.h"

#include <algorithm>

#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/lsh/blocking_table.h"
#include "src/lsh/minhash_lsh.h"
#include "src/metrics/jaccard.h"

namespace cbvlink {

Result<HarraLinker> HarraLinker::Create(HarraConfig config) {
  if (config.K == 0 || config.L == 0) {
    return Status::InvalidArgument("HARRA needs positive K and L");
  }
  if (config.theta < 0.0 || config.theta > 1.0) {
    return Status::InvalidArgument("Jaccard threshold outside [0, 1]");
  }
  return HarraLinker(std::move(config));
}

Result<LinkageResult> HarraLinker::Link(const std::vector<Record>& a,
                                        const std::vector<Record>& b,
                                        const ExecutionOptions& options) {
  Rng rng(config_.seed);
  LinkageResult result;
  Stopwatch watch;
  ExecutionContext ctx(options);
  result.threads_used = ctx.threads_used();

  Result<QGramExtractor> extractor =
      QGramExtractor::Create(*config_.alphabet, config_.qgram);
  if (!extractor.ok()) return extractor.status();

  // --- Embedding: one merged bigram set per record -----------------------
  // The union of every field's bigrams in one shared space is HARRA's
  // single-vector representation.
  // Each slot is written exactly once, so the sharded fill is identical to
  // the serial loop at any thread count.
  std::vector<std::vector<uint64_t>> sets_a(a.size());
  std::vector<std::vector<uint64_t>> sets_b(b.size());
  const auto embed_all = [&](const std::vector<Record>& records,
                             std::vector<std::vector<uint64_t>>& sets) {
    const auto fill = [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        sets[i] = extractor.value().RecordIndexSet(records[i].fields);
      }
    };
    if (ctx.pool() == nullptr) {
      fill(0, 0, records.size());
    } else {
      ctx.pool()->ParallelFor(records.size(), ctx.chunk_size_hint(), fill);
    }
  };
  embed_all(a, sets_a);
  embed_all(b, sets_b);
  result.embed_seconds = watch.ElapsedSeconds();

  Result<MinHashLshFamily> family = MinHashLshFamily::Create(
      config_.K, config_.L, extractor.value().IndexSpaceSize(), rng);
  if (!family.ok()) return family.status();
  result.blocking_groups = config_.L;

  // --- Iterative block/match, one group at a time ------------------------
  std::vector<bool> alive_a(a.size(), true);
  std::vector<bool> alive_b(b.size(), true);

  // Per-probe dedup as a generation-stamped visited array over the dense
  // A indices (same scheme as the matching engine, DESIGN.md §9) instead
  // of allocating an unordered_set per probe.
  std::vector<uint32_t> stamps(a.size(), 0);
  uint32_t epoch = 0;

  watch.Restart();
  double index_seconds = 0.0;
  Stopwatch phase;
  // MinHash keys of one iteration, recomputed per group for the records
  // still alive; per-slot writes keep the parallel fill deterministic.
  std::vector<uint64_t> keys_a(a.size());
  std::vector<uint64_t> keys_b(b.size());
  const auto compute_keys = [&](const std::vector<std::vector<uint64_t>>& sets,
                                const std::vector<bool>& alive,
                                std::vector<uint64_t>& keys, size_t l) {
    const auto fill = [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        if (alive[i]) keys[i] = family.value().Key(sets[i], l);
      }
    };
    if (ctx.pool() == nullptr) {
      fill(0, 0, sets.size());
    } else {
      ctx.pool()->ParallelFor(sets.size(), ctx.chunk_size_hint(), fill);
    }
  };
  std::vector<uint64_t> table_keys;
  std::vector<uint32_t> table_ids;
  for (size_t l = 0; l < config_.L; ++l) {
    // Build this iteration's table over the records still alive: keys in
    // parallel, then one bulk merge in index order (deterministic
    // buckets).
    phase.Restart();
    compute_keys(sets_a, alive_a, keys_a, l);
    compute_keys(sets_b, alive_b, keys_b, l);
    table_keys.clear();
    table_ids.clear();
    for (size_t i = 0; i < a.size(); ++i) {
      if (!alive_a[i]) continue;
      table_keys.push_back(keys_a[i]);
      table_ids.push_back(static_cast<uint32_t>(i));
    }
    BlockingTable table;
    table.BulkInsert(table_keys, table_ids);
    index_seconds += phase.ElapsedSeconds();

    for (size_t j = 0; j < b.size(); ++j) {
      if (!alive_b[j]) continue;
      const uint64_t key = keys_b[j];
      if (++epoch == 0) {
        std::fill(stamps.begin(), stamps.end(), 0);
        epoch = 1;
      }
      for (const uint32_t ai : table.Get(key)) {
        ++result.stats.candidate_occurrences;
        const size_t i = static_cast<size_t>(ai);
        if (!alive_a[i]) continue;  // matched earlier in this iteration
        if (stamps[i] == epoch) {
          ++result.stats.dedup_skipped;
          continue;
        }
        stamps[i] = epoch;
        ++result.stats.comparisons;
        if (JaccardDistance(sets_a[i], sets_b[j]) <= config_.theta) {
          ++result.stats.matches;
          result.matches.push_back(IdPair{a[i].id, b[j].id});
          // Early pruning: both records leave every later iteration.
          alive_a[i] = false;
          alive_b[j] = false;
          break;
        }
      }
    }
  }
  result.match_seconds = watch.ElapsedSeconds() - index_seconds;
  result.index_seconds = index_seconds;
  return result;
}

}  // namespace cbvlink
