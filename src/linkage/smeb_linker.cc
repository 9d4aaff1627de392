#include "src/linkage/smeb_linker.h"

#include <cmath>
#include <unordered_set>

#include "src/common/stopwatch.h"
#include "src/common/thread_pool.h"
#include "src/lsh/blocking_table.h"
#include "src/lsh/euclidean_lsh.h"
#include "src/lsh/params.h"
#include "src/metrics/euclidean.h"
#include "src/text/normalize.h"

namespace cbvlink {

Result<SmEbLinker> SmEbLinker::Create(SmEbConfig config) {
  if (config.schema.num_attributes() == 0) {
    return Status::InvalidArgument("schema has no attributes");
  }
  if (config.thresholds.empty()) {
    return Status::InvalidArgument("SM-EB needs at least one threshold");
  }
  if (config.K == 0) return Status::InvalidArgument("K must be positive");
  if (config.width <= 0.0) {
    return Status::InvalidArgument("bucket width must be positive");
  }
  return SmEbLinker(std::move(config));
}

Result<LinkageResult> SmEbLinker::Link(const std::vector<Record>& a,
                                       const std::vector<Record>& b,
                                       const ExecutionOptions& options) {
  Rng rng(config_.seed);
  LinkageResult result;
  Stopwatch watch;
  // StringMap training stays serial (pivot selection walks the pooled
  // corpus in order); everything per-record runs on the context's pool.
  ExecutionContext ctx(options);
  result.threads_used = ctx.threads_used();

  const size_t nf = config_.schema.num_attributes();
  const size_t d = config_.stringmap.dimensions;

  // --- Embedding: train one StringMap per attribute, embed all records ----
  std::vector<StringMapEmbedder> embedders;
  embedders.reserve(nf);
  for (size_t attr = 0; attr < nf; ++attr) {
    const AttributeSpec& spec = config_.schema.attributes[attr];
    // Pool normalized values from both data sets (the paper's StringMap
    // "iterates the strings of both data sets" to form the axes).
    std::vector<std::string> corpus;
    corpus.reserve(a.size() + b.size());
    for (const Record& r : a) {
      if (attr < r.fields.size()) {
        corpus.push_back(Normalize(r.fields[attr], *spec.alphabet));
      }
    }
    for (const Record& r : b) {
      if (attr < r.fields.size()) {
        corpus.push_back(Normalize(r.fields[attr], *spec.alphabet));
      }
    }
    StringMapOptions options = config_.stringmap;
    options.seed = config_.seed + attr * 1000003ULL;
    Result<StringMapEmbedder> embedder =
        StringMapEmbedder::Train(corpus, options);
    if (!embedder.ok()) return embedder.status();
    embedders.push_back(std::move(embedder).value());
  }

  const auto embed_record =
      [&](const Record& record) -> std::vector<double> {
    std::vector<double> out;
    out.reserve(nf * d);
    for (size_t attr = 0; attr < nf; ++attr) {
      const AttributeSpec& spec = config_.schema.attributes[attr];
      const std::vector<double> coords = embedders[attr].Embed(
          Normalize(record.fields[attr], *spec.alphabet));
      out.insert(out.end(), coords.begin(), coords.end());
    }
    return out;
  };

  // Per-slot writes keep the parallel embedding identical to the serial
  // loop at any thread count.
  std::vector<std::vector<double>> points_a(a.size());
  std::vector<std::vector<double>> points_b(b.size());
  const auto embed_all = [&](const std::vector<Record>& records,
                             std::vector<std::vector<double>>& points) {
    const auto fill = [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) points[i] = embed_record(records[i]);
    };
    if (ctx.pool() == nullptr) {
      fill(0, 0, records.size());
    } else {
      ctx.pool()->ParallelFor(records.size(), ctx.chunk_size_hint(), fill);
    }
  };
  embed_all(a, points_a);
  embed_all(b, points_b);
  result.embed_seconds = watch.ElapsedSeconds();

  // --- Blocking: p-stable LSH over the concatenated vectors ---------------
  watch.Restart();
  size_t L = config_.L;
  if (L == 0) {
    double c2 = 0.0;
    for (double theta : config_.thresholds) c2 += theta * theta;
    Result<double> p =
        EuclideanBaseProbability(std::sqrt(c2), config_.width);
    if (!p.ok()) return p.status();
    Result<size_t> computed =
        OptimalGroups(p.value(), config_.K, config_.delta);
    if (!computed.ok()) return computed.status();
    L = computed.value();
  }
  result.blocking_groups = L;

  Result<EuclideanLshFamily> family =
      EuclideanLshFamily::Create(config_.K, L, nf * d, config_.width, rng);
  if (!family.ok()) return family.status();

  std::vector<BlockingTable> tables(L);
  if (ctx.pool() == nullptr) {
    for (size_t i = 0; i < a.size(); ++i) {
      for (size_t l = 0; l < L; ++l) {
        tables[l].Insert(family.value().Key(points_a[i], l),
                         static_cast<uint32_t>(i));
      }
    }
  } else {
    // Two-phase build (DESIGN.md §10): keys into a per-slot matrix, then
    // one deterministic column merge per table.
    const size_t n = a.size();
    std::vector<uint64_t> keys(n * L);
    std::vector<uint32_t> ids(n);
    ctx.pool()->ParallelFor(n, ctx.chunk_size_hint(),
                            [&](size_t, size_t begin, size_t end) {
                              for (size_t i = begin; i < end; ++i) {
                                ids[i] = static_cast<uint32_t>(i);
                                for (size_t l = 0; l < L; ++l) {
                                  keys[l * n + i] =
                                      family.value().Key(points_a[i], l);
                                }
                              }
                            });
    ctx.pool()->ParallelFor(L, [&](size_t, size_t begin, size_t end) {
      for (size_t l = begin; l < end; ++l) {
        tables[l].BulkInsert({keys.data() + l * n, n}, ids);
      }
    });
  }
  result.index_seconds = watch.ElapsedSeconds();

  // --- Matching: attribute-level Euclidean thresholds, AND semantics ------
  watch.Restart();
  const auto classify = [&](const std::vector<double>& pa,
                            const std::vector<double>& pb) {
    for (size_t attr = 0; attr < nf && attr < config_.thresholds.size();
         ++attr) {
      double dist2 = 0.0;
      for (size_t k = attr * d; k < (attr + 1) * d; ++k) {
        const double diff = pa[k] - pb[k];
        dist2 += diff * diff;
      }
      const double theta = config_.thresholds[attr];
      if (dist2 > theta * theta) return false;
    }
    return true;
  };

  // Probes only read the tables, so they shard over the pool; per-chunk
  // stats and matches are merged in chunk order, matching the serial
  // probe sequence exactly.
  const auto match_range = [&](size_t begin, size_t end, MatchStats* stats,
                               std::vector<IdPair>* matches) {
    for (size_t j = begin; j < end; ++j) {
      std::unordered_set<uint32_t> compared;
      for (size_t l = 0; l < L; ++l) {
        const uint64_t key = family.value().Key(points_b[j], l);
        for (const uint32_t ai : tables[l].Get(key)) {
          ++stats->candidate_occurrences;
          if (!compared.insert(ai).second) {
            ++stats->dedup_skipped;
            continue;
          }
          ++stats->comparisons;
          if (classify(points_a[static_cast<size_t>(ai)], points_b[j])) {
            ++stats->matches;
            matches->push_back(
                IdPair{a[static_cast<size_t>(ai)].id, b[j].id});
          }
        }
      }
    }
  };
  if (ctx.pool() == nullptr) {
    match_range(0, b.size(), &result.stats, &result.matches);
  } else {
    std::vector<MatchStats> chunk_stats(ctx.pool()->num_threads());
    std::vector<std::vector<IdPair>> chunk_matches(ctx.pool()->num_threads());
    ctx.pool()->ParallelFor(
        b.size(), ctx.chunk_size_hint(),
        [&](size_t chunk, size_t begin, size_t end) {
          match_range(begin, end, &chunk_stats[chunk], &chunk_matches[chunk]);
        });
    for (size_t c = 0; c < chunk_stats.size(); ++c) {
      result.stats.candidate_occurrences +=
          chunk_stats[c].candidate_occurrences;
      result.stats.comparisons += chunk_stats[c].comparisons;
      result.stats.matches += chunk_stats[c].matches;
      result.stats.dedup_skipped += chunk_stats[c].dedup_skipped;
      result.matches.insert(result.matches.end(), chunk_matches[c].begin(),
                            chunk_matches[c].end());
    }
  }
  result.match_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace cbvlink
