#include "src/eval/block_stats.h"

#include <algorithm>

namespace cbvlink {

double GiniCoefficient(std::vector<size_t> sizes) {
  if (sizes.empty()) return 0.0;
  std::sort(sizes.begin(), sizes.end());
  double total = 0.0;
  double weighted = 0.0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    total += static_cast<double>(sizes[i]);
    weighted += static_cast<double>(i + 1) * static_cast<double>(sizes[i]);
  }
  if (total == 0.0) return 0.0;
  const double n = static_cast<double>(sizes.size());
  // G = (2 * sum(i * x_i) - (n + 1) * sum(x_i)) / (n * sum(x_i)).
  return (2.0 * weighted - (n + 1.0) * total) / (n * total);
}

namespace {

void Accumulate(const BlockingTable& table, BucketStats* stats,
                std::vector<size_t>* sizes) {
  table.ForEachBucket([&](uint64_t, std::span<const uint32_t> bucket) {
    const size_t size = bucket.size();
    ++stats->num_buckets;
    stats->num_entries += size;
    stats->max_bucket = std::max(stats->max_bucket, size);
    stats->expected_probe_candidates +=
        static_cast<double>(size) * static_cast<double>(size);
    sizes->push_back(size);
  });
}

BucketStats Finalize(BucketStats stats, std::vector<size_t> sizes) {
  if (stats.num_buckets > 0) {
    stats.mean_bucket = static_cast<double>(stats.num_entries) /
                        static_cast<double>(stats.num_buckets);
  }
  stats.gini = GiniCoefficient(std::move(sizes));
  return stats;
}

}  // namespace

BucketStats ComputeBucketStats(const BlockingTable& table) {
  BucketStats stats;
  std::vector<size_t> sizes;
  Accumulate(table, &stats, &sizes);
  return Finalize(stats, std::move(sizes));
}

BucketStats ComputeBucketStats(const std::vector<BlockingTable>& tables) {
  BucketStats stats;
  std::vector<size_t> sizes;
  for (const BlockingTable& table : tables) {
    Accumulate(table, &stats, &sizes);
  }
  return Finalize(stats, std::move(sizes));
}

}  // namespace cbvlink
