#include "src/blocking/classic.h"

#include <algorithm>
#include <set>
#include <string>

#include "src/common/str.h"
#include "src/metrics/jaccard.h"
#include "src/text/normalize.h"
#include "src/text/qgram.h"

namespace cbvlink {

namespace {

/// One entry of the merged A ∪ B pool.
struct PoolEntry {
  RecordId id = 0;
  bool from_a = false;
  std::string key;                  // sorted-neighborhood blocking key
  std::vector<uint64_t> gram_set;   // canopy cheap-distance representation
};

std::string BlockingKey(const Record& record, size_t prefix_chars) {
  std::string key;
  for (const std::string& field : record.fields) {
    const std::string normalized = Normalize(field, Alphabet::Alphanumeric());
    key.append(normalized.substr(0, prefix_chars));
    key.push_back('|');  // field separator keeps prefixes aligned
  }
  return key;
}

}  // namespace

Result<std::vector<IdPair>> SortedNeighborhoodCandidates(
    const std::vector<Record>& a, const std::vector<Record>& b,
    const SortedNeighborhoodOptions& options) {
  if (options.window == 0) {
    return Status::InvalidArgument("window must be positive");
  }
  std::vector<PoolEntry> pool;
  pool.reserve(a.size() + b.size());
  for (const Record& r : a) {
    pool.push_back({r.id, true, BlockingKey(r, options.key_prefix_chars), {}});
  }
  for (const Record& r : b) {
    pool.push_back({r.id, false, BlockingKey(r, options.key_prefix_chars), {}});
  }
  std::sort(pool.begin(), pool.end(),
            [](const PoolEntry& x, const PoolEntry& y) {
              return x.key < y.key;
            });

  std::set<IdPair> unique_pairs;
  for (size_t i = 0; i < pool.size(); ++i) {
    const size_t end = std::min(pool.size(), i + options.window);
    for (size_t j = i + 1; j < end; ++j) {
      if (pool[i].from_a == pool[j].from_a) continue;
      const PoolEntry& from_a = pool[i].from_a ? pool[i] : pool[j];
      const PoolEntry& from_b = pool[i].from_a ? pool[j] : pool[i];
      unique_pairs.insert(IdPair{from_a.id, from_b.id});
    }
  }
  return std::vector<IdPair>(unique_pairs.begin(), unique_pairs.end());
}

Result<std::vector<IdPair>> CanopyCandidates(const std::vector<Record>& a,
                                             const std::vector<Record>& b,
                                             const CanopyOptions& options) {
  if (options.loose_threshold < 0.0 || options.loose_threshold > 1.0 ||
      options.tight_threshold < 0.0 || options.tight_threshold > 1.0) {
    return Status::InvalidArgument("canopy thresholds must lie in [0, 1]");
  }
  if (options.tight_threshold > options.loose_threshold) {
    return Status::InvalidArgument("tight threshold exceeds loose threshold");
  }
  Result<QGramExtractor> extractor = QGramExtractor::Create(
      Alphabet::Alphanumeric(), {.q = options.q, .pad = false});
  if (!extractor.ok()) return extractor.status();

  std::vector<PoolEntry> pool;
  pool.reserve(a.size() + b.size());
  const auto add = [&](const Record& r, bool from_a) {
    PoolEntry entry;
    entry.id = r.id;
    entry.from_a = from_a;
    entry.gram_set = extractor.value().RecordIndexSet(r.fields);
    pool.push_back(std::move(entry));
  };
  for (const Record& r : a) add(r, true);
  for (const Record& r : b) add(r, false);

  Rng rng(options.seed);
  std::vector<bool> removed(pool.size(), false);
  std::vector<size_t> alive(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) alive[i] = i;

  std::set<IdPair> unique_pairs;
  while (!alive.empty()) {
    // Pick a random remaining record as the canopy center.
    const size_t pick = rng.Below(alive.size());
    const size_t center = alive[pick];

    std::vector<size_t> members;
    for (size_t idx : alive) {
      const double dist =
          JaccardDistance(pool[center].gram_set, pool[idx].gram_set);
      if (dist <= options.loose_threshold) {
        members.push_back(idx);
        if (dist <= options.tight_threshold) removed[idx] = true;
      }
    }
    removed[center] = true;  // the center never seeds again

    // Candidate pairs: all cross-source pairs inside this canopy.
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        const PoolEntry& x = pool[members[i]];
        const PoolEntry& y = pool[members[j]];
        if (x.from_a == y.from_a) continue;
        const PoolEntry& from_a = x.from_a ? x : y;
        const PoolEntry& from_b = x.from_a ? y : x;
        unique_pairs.insert(IdPair{from_a.id, from_b.id});
      }
    }

    // Compact the alive list.
    std::vector<size_t> next;
    next.reserve(alive.size());
    for (size_t idx : alive) {
      if (!removed[idx]) next.push_back(idx);
    }
    alive.swap(next);
  }
  return std::vector<IdPair>(unique_pairs.begin(), unique_pairs.end());
}

}  // namespace cbvlink
