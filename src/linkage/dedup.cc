#include "src/linkage/dedup.h"

#include <algorithm>
#include <unordered_map>

#include "src/common/union_find.h"
#include "src/linkage/online_linker.h"

namespace cbvlink {

Result<DedupResult> FindDuplicates(const std::vector<Record>& records,
                                   const CbvHbConfig& config) {
  return FindDuplicates(records, config, ExecutionOptions::Serial());
}

Result<DedupResult> FindDuplicates(const std::vector<Record>& records,
                                   const CbvHbConfig& config,
                                   const ExecutionOptions& options) {
  // The online linker's match-then-insert loop visits each unordered
  // pair at most once (a record only probes those inserted before it).
  // The first estimation_sample records size its encoders.
  std::vector<Record> sample;
  if (config.expected_qgrams.empty()) {
    const size_t n = std::min(config.estimation_sample, records.size());
    sample.assign(records.begin(), records.begin() + n);
  }
  Result<OnlineCbvHbLinker> linker = OnlineCbvHbLinker::Create(config, sample);
  if (!linker.ok()) return linker.status();

  DedupResult result;
  result.blocking_groups = linker.value().blocking_groups();
  // Embedding is the parallel part; the stream itself is order-dependent
  // by construction and stays serial.
  ExecutionContext ctx(options);
  Result<std::vector<EncodedRecord>> encoded = linker.value().encoder().EncodeAll(
      records, ctx.pool(), ctx.chunk_size_hint());
  if (!encoded.ok()) return encoded.status();
  for (const EncodedRecord& record : encoded.value()) {
    CBVLINK_RETURN_NOT_OK(linker.value().MatchAndInsertEncoded(
        record, &result.duplicate_pairs));
  }
  result.stats = linker.value().stats();

  // Consolidate pairwise matches into clusters over dense positions.
  std::unordered_map<RecordId, size_t> position;
  position.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    position.emplace(records[i].id, i);
  }
  UnionFind sets(records.size());
  for (const IdPair& pair : result.duplicate_pairs) {
    const auto a = position.find(pair.a_id);
    const auto b = position.find(pair.b_id);
    if (a != position.end() && b != position.end()) {
      sets.Union(a->second, b->second);
    }
  }
  for (const std::vector<size_t>& members : sets.Sets()) {
    std::vector<RecordId> cluster;
    cluster.reserve(members.size());
    for (size_t index : members) cluster.push_back(records[index].id);
    result.clusters.push_back(std::move(cluster));
  }
  return result;
}

}  // namespace cbvlink
