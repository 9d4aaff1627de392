#include "src/blocking/matcher.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/telemetry/metrics.h"

namespace cbvlink {
namespace {

/// Match-stage funnel counters, resolved once per process.
struct MatcherMetrics {
  telemetry::Counter* candidates;
  telemetry::Counter* comparisons;
  telemetry::Counter* matches;
  telemetry::Counter* dedup_skipped;
  telemetry::Histogram* batch_latency;

  static const MatcherMetrics& Get() {
    static const MatcherMetrics m = [] {
      telemetry::Registry& reg = telemetry::Registry::Global();
      MatcherMetrics out;
      out.candidates = reg.GetCounter("matcher_candidates_total");
      out.comparisons = reg.GetCounter("matcher_comparisons_total");
      out.matches = reg.GetCounter("matcher_matches_total");
      out.dedup_skipped = reg.GetCounter("matcher_dedup_skipped_total");
      out.batch_latency = reg.GetHistogram("matcher_batch_latency_us");
      return out;
    }();
    return m;
  }

  void Record(const MatchStats& stats) const {
    if (stats.candidate_occurrences != 0)
      candidates->Add(stats.candidate_occurrences);
    if (stats.comparisons != 0) comparisons->Add(stats.comparisons);
    if (stats.matches != 0) matches->Add(stats.matches);
    if (stats.dedup_skipped != 0) dedup_skipped->Add(stats.dedup_skipped);
  }
};

}  // namespace

uint32_t VectorStore::Add(const EncodedRecord& record) {
  if (ids_.empty()) {
    num_bits_ = record.bits.size();
    stride_ = record.bits.words().size();
  }
  // The arena has one stride for every record (the first Add fixes it);
  // admitting a different width would silently corrupt the layout — every
  // later record lands at the wrong offset and the kernels read garbage.
  // Enforced unconditionally: an abort here is a caller bug surfaced at
  // the boundary, not data-dependent misbehaviour three stages later.
  if (record.bits.size() != num_bits_) {
    std::fprintf(stderr,
                 "cbvlink: VectorStore::Add id=%llu bit width %zu != store "
                 "width %zu (all vectors must share one encoder layout)\n",
                 static_cast<unsigned long long>(record.id),
                 record.bits.size(), num_bits_);
    std::abort();
  }
  if (ids_.size() + 1 > (slots_.size() * 3) / 4) {
    Rehash(slots_.empty() ? 16 : slots_.size() * 2);
  }
  // First Add wins for a live slot, matching the emplace semantics of the
  // map-based store.  A tombstoned slot is resurrected in place with the
  // new vector (an update may have changed the bits), so the dense index
  // stays stable.
  size_t pos = Hash(record.id) & slot_mask_;
  while (true) {
    const uint32_t dense = slots_[pos];
    if (dense == kNotFound) break;
    if (ids_[dense] == record.id) {
      if (IsDead(dense)) {
        const std::vector<uint64_t>& words = record.bits.words();
        std::copy(words.begin(), words.end(),
                  words_.begin() + static_cast<size_t>(dense) * stride_);
        dead_words_[dense >> 6] &= ~(uint64_t{1} << (dense & 63));
        --dead_count_;
      }
      return dense;
    }
    pos = (pos + 1) & slot_mask_;
  }
  const uint32_t dense = static_cast<uint32_t>(ids_.size());
  slots_[pos] = dense;
  ids_.push_back(record.id);
  const std::vector<uint64_t>& words = record.bits.words();
  words_.insert(words_.end(), words.begin(), words.end());
  // BitVector zero-pads past size(); the arena inherits the invariant, so
  // whole-word kernels are exact.
  return dense;
}

void VectorStore::AddAll(const std::vector<EncodedRecord>& records,
                         std::vector<uint32_t>* slots) {
  if (!records.empty() && ids_.empty()) {
    words_.reserve(records.size() * records.front().bits.words().size());
    ids_.reserve(records.size());
  }
  if (slots != nullptr) slots->resize(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const uint32_t slot = Add(records[i]);
    if (slots != nullptr) (*slots)[i] = slot;
  }
}

bool VectorStore::Remove(RecordId id) {
  const uint32_t dense = DenseIndex(id);
  if (dense == kNotFound || IsDead(dense)) return false;
  const size_t word = static_cast<size_t>(dense) >> 6;
  if (word >= dead_words_.size()) dead_words_.resize(word + 1, 0);
  dead_words_[word] |= uint64_t{1} << (dense & 63);
  ++dead_count_;
  return true;
}

void VectorStore::Rehash(size_t min_slots) {
  size_t n = 16;
  while (n < min_slots) n *= 2;
  slots_.assign(n, kNotFound);
  slot_mask_ = n - 1;
  for (uint32_t dense = 0; dense < ids_.size(); ++dense) {
    size_t pos = Hash(ids_[dense]) & slot_mask_;
    while (slots_[pos] != kNotFound) pos = (pos + 1) & slot_mask_;
    slots_[pos] = dense;
  }
}

BitVector VectorStore::VectorAt(uint32_t dense) const {
  const uint64_t* words = WordsAt(dense);
  return BitVector::FromWords(num_bits_,
                              std::vector<uint64_t>(words, words + stride_));
}

std::vector<EncodedRecord> VectorStore::LiveRecords() const {
  std::vector<uint32_t> live;
  live.reserve(live_size());
  for (uint32_t dense = 0; dense < size(); ++dense) {
    if (!IsDead(dense)) live.push_back(dense);
  }
  std::sort(live.begin(), live.end(),
            [&](uint32_t x, uint32_t y) { return ids_[x] < ids_[y]; });
  std::vector<EncodedRecord> records;
  records.reserve(live.size());
  for (const uint32_t dense : live) {
    records.push_back(EncodedRecord{ids_[dense], VectorAt(dense)});
  }
  return records;
}

namespace {

/// Appends the predicates of `rule` to `out` when it is a bare predicate
/// or an AND (nested ANDs included) of predicates — the shapes the
/// masked-conjunction kernel evaluates.  False, with `out` partially
/// filled, when an OR or NOT appears.
bool CollectConjunction(const Rule& rule, std::vector<Predicate>* out) {
  if (rule.kind() == Rule::Kind::kPredicate) {
    out->push_back(rule.predicate());
    return true;
  }
  if (rule.kind() != Rule::Kind::kAnd) return false;
  for (const Rule& child : rule.children()) {
    if (!CollectConjunction(child, out)) return false;
  }
  return true;
}

}  // namespace

PairClassifier MakeRuleClassifier(Rule rule, const RecordLayout& layout) {
  PairClassifier classifier;
  std::vector<Predicate> conjunction;
  if (CollectConjunction(rule, &conjunction)) {
    classifier.kind_ = PairClassifier::Kind::kConjunction;
    for (const Predicate& pred : conjunction) {
      const RecordLayout::Segment& seg = layout.segment(pred.attribute);
      classifier.predicates_.push_back(
          MaskedPredicate::ForRange(seg.offset, seg.size, pred.threshold));
    }
    return classifier;
  }
  classifier.kind_ = PairClassifier::Kind::kRule;
  // Flatten the tree breadth-first so every node's children sit
  // contiguously; evaluation then walks small indices instead of chasing
  // child vectors.
  std::vector<const Rule*> order;
  order.push_back(&rule);
  for (size_t i = 0; i < order.size(); ++i) {
    for (const Rule& child : order[i]->children()) order.push_back(&child);
  }
  classifier.nodes_.resize(order.size());
  uint32_t next_child = 1;
  for (size_t i = 0; i < order.size(); ++i) {
    const Rule& node = *order[i];
    PairClassifier::Node& compiled = classifier.nodes_[i];
    compiled.kind = node.kind();
    compiled.first_child = next_child;
    compiled.num_children = static_cast<uint32_t>(node.children().size());
    next_child += compiled.num_children;
    if (node.kind() == Rule::Kind::kPredicate) {
      const RecordLayout::Segment& seg =
          layout.segment(node.predicate().attribute);
      compiled.offset = static_cast<uint32_t>(seg.offset);
      compiled.length = static_cast<uint32_t>(seg.size);
      compiled.theta = static_cast<uint32_t>(node.predicate().threshold);
    }
  }
  return classifier;
}

PairClassifier MakeRecordThresholdClassifier(size_t theta) {
  PairClassifier classifier;
  classifier.kind_ = PairClassifier::Kind::kThreshold;
  classifier.theta_ = theta;
  return classifier;
}

void PairClassifier::ClassifyBatch(const uint64_t* probe,
                                   const uint64_t* rows, size_t stride,
                                   const uint32_t* dense, size_t n,
                                   uint8_t* out) const {
  const KernelSet& kernels = ActiveKernels();
  switch (kind_) {
    case Kind::kThreshold: {
      const MaskedPredicate whole =
          MaskedPredicate::ForRange(0, stride * 64, theta_);
      kernels.batch_conjunction(probe, rows, stride, dense, n, &whole, 1,
                                out);
      return;
    }
    case Kind::kConjunction:
      kernels.batch_conjunction(probe, rows, stride, dense, n,
                                predicates_.data(), predicates_.size(), out);
      return;
    case Kind::kRule:
      for (size_t i = 0; i < n; ++i) {
        const uint64_t* row =
            rows +
            static_cast<size_t>(dense != nullptr ? dense[i] : i) * stride;
        out[i] = EvalNode(0, probe, row) ? 1 : 0;
      }
      return;
    case Kind::kEmpty:
      std::fill(out, out + n, uint8_t{0});
      return;
  }
}

bool PairClassifier::EvalNode(uint32_t index, const uint64_t* a,
                              const uint64_t* b) const {
  const Node& node = nodes_[index];
  switch (node.kind) {
    case Rule::Kind::kPredicate:
      return ActiveKernels().range_distance(a, b, node.offset, node.length) <=
             node.theta;
    case Rule::Kind::kAnd:
      for (uint32_t c = 0; c < node.num_children; ++c) {
        if (!EvalNode(node.first_child + c, a, b)) return false;
      }
      return true;
    case Rule::Kind::kOr:
      for (uint32_t c = 0; c < node.num_children; ++c) {
        if (EvalNode(node.first_child + c, a, b)) return true;
      }
      return false;
    case Rule::Kind::kNot:
      return !EvalNode(node.first_child, a, b);
  }
  return false;
}

Matcher::Matcher(const CandidateSource* source, const VectorStore* store_a)
    : source_(dynamic_cast<const SlotCandidateSource*>(source)),
      store_a_(store_a) {
  // Slots index the stamps and the arena directly; a source that knows
  // only RecordIds has nothing to stamp.
  if (source_ == nullptr) {
    std::fprintf(stderr,
                 "cbvlink: Matcher: the candidate source is not a "
                 "SlotCandidateSource (its tables must hold arena slots)\n");
    std::abort();
  }
}

void Matcher::MatchOne(const EncodedRecord& b, const PairClassifier& classifier,
                       std::vector<IdPair>* out, MatchStats* stats) const {
  MatchOne(b, classifier, out, stats, &scratch_);
}

void Matcher::MatchOne(const EncodedRecord& b, const PairClassifier& classifier,
                       std::vector<IdPair>* out, MatchStats* stats,
                       Scratch* scratch) const {
  // Counters are optional (some callers only want the pairs); fold into a
  // local so the hot loop never branches on stats.
  MatchStats local;
  MatchStats* const s = stats != nullptr ? stats : &local;
  Probe(b.bits, s, scratch);
  Classify(b, classifier, out, s, scratch);
}

bool Matcher::Probe(const BitVector& probe, MatchStats* stats,
                    Scratch* scratch) const {
  scratch->Prepare(store_a_->size());
  // Slots index the stamps and the arena directly; one check per probe
  // keeps a blocker built over other records from reading past them.
  if (source_->num_slots() > store_a_->size()) {
    std::fprintf(stderr,
                 "cbvlink: Matcher: blocking tables hold slot %zu but the "
                 "store has %zu records (tables and store must be built "
                 "over the same records)\n",
                 source_->num_slots() - 1, store_a_->size());
    std::abort();
  }
  uint32_t* const stamps = scratch->stamps_.data();
  const uint32_t epoch = scratch->epoch_;
  // Stage every first-seen live candidate while walking the bucket
  // spans; Classify then takes the probe's whole fresh set in one call.
  std::vector<uint32_t>& fresh_dense = scratch->fresh_dense_;
  const bool overflowed = source_->ForEachSlotSpan(
      probe, [&](std::span<const uint32_t> bucket) {
        stats->candidate_occurrences += bucket.size();
        for (const uint32_t slot : bucket) {
          if (stamps[slot] == epoch) {
            ++stats->dedup_skipped;
            continue;
          }
          stamps[slot] = epoch;
          // Tombstoned slot: stamped (so repeats dedupe for free) but
          // never compared — a deleted record matches nothing.
          if (store_a_->IsDead(slot)) continue;
          fresh_dense.push_back(slot);
        }
      });
  if (source_->FormulatesEveryPair() || fresh_dense.empty()) return overflowed;
  // A compound rule: keep, in order, the staged slots whose arena rows
  // form a formulated pair with the probe.  A dropped slot loses its
  // stamp, so ClassifyUnstamped still compares it.
  std::vector<uint8_t>& keep = scratch->verdicts_;
  if (keep.size() < fresh_dense.size()) keep.resize(fresh_dense.size());
  source_->FilterFormulated(probe, store_a_->arena().data(),
                            store_a_->words_per_record(), fresh_dense,
                            keep.data());
  size_t kept = 0;
  for (size_t i = 0; i < fresh_dense.size(); ++i) {
    if (keep[i] != 0) {
      fresh_dense[kept++] = fresh_dense[i];
    } else {
      stamps[fresh_dense[i]] = 0;
    }
  }
  fresh_dense.resize(kept);
  return overflowed;
}

void Matcher::Classify(const EncodedRecord& b,
                       const PairClassifier& classifier,
                       std::vector<IdPair>* out, MatchStats* stats,
                       Scratch* scratch) const {
  // Candidates sit at a fixed stride in the arena, so the kernel streams
  // them through the dense index list.
  const std::vector<uint32_t>& fresh_dense = scratch->fresh_dense_;
  const size_t n = fresh_dense.size();
  stats->comparisons += n;
  if (n == 0) return;
  if (scratch->verdicts_.size() < n) scratch->verdicts_.resize(n);
  classifier.ClassifyBatch(b.bits.words().data(), store_a_->arena().data(),
                           store_a_->words_per_record(), fresh_dense.data(),
                           n, scratch->verdicts_.data());
  for (size_t i = 0; i < n; ++i) {
    if (scratch->verdicts_[i] != 0) {
      ++stats->matches;
      out->push_back(IdPair{store_a_->IdAt(fresh_dense[i]), b.id});
    }
  }
}

void Matcher::ClassifyUnstamped(const EncodedRecord& b,
                                const PairClassifier& classifier,
                                std::vector<IdPair>* out, MatchStats* stats,
                                Scratch* scratch) const {
  // One kernel call over the whole contiguous arena, then keep the
  // verdicts of the live slots the probe did not already stamp.
  // Classifying a stamped or dead row too is cheaper than gathering the
  // rest into a dense list.
  const size_t n = store_a_->size();
  if (n == 0) return;
  if (scratch->verdicts_.size() < n) scratch->verdicts_.resize(n);
  const uint8_t* const verdicts = scratch->verdicts_.data();
  classifier.ClassifyBatch(b.bits.words().data(), store_a_->arena().data(),
                           store_a_->words_per_record(), /*dense=*/nullptr, n,
                           scratch->verdicts_.data());
  const uint32_t* const stamps = scratch->stamps_.data();
  const uint32_t epoch = scratch->epoch_;
  for (uint32_t dense = 0; dense < n; ++dense) {
    if (stamps[dense] == epoch || store_a_->IsDead(dense)) continue;
    ++stats->comparisons;
    if (verdicts[dense] != 0) {
      ++stats->matches;
      out->push_back(IdPair{store_a_->IdAt(dense), b.id});
    }
  }
}

std::vector<IdPair> Matcher::MatchAll(
    const std::vector<EncodedRecord>& b_records,
    const PairClassifier& classifier, MatchStats* stats) const {
  return MatchAll(b_records, classifier, stats, nullptr);
}

std::vector<IdPair> Matcher::MatchAll(
    const std::vector<EncodedRecord>& b_records,
    const PairClassifier& classifier, MatchStats* stats,
    ThreadPool* pool) const {
  const MatcherMetrics& metrics = MatcherMetrics::Get();
  telemetry::ScopedTimer timer(metrics.batch_latency);
  MatchStats batch;
  std::vector<IdPair> out;
  if (pool == nullptr || pool->num_threads() <= 1 || b_records.size() <= 1) {
    Scratch scratch;
    for (const EncodedRecord& b : b_records) {
      MatchOne(b, classifier, &out, &batch, &scratch);
    }
  } else {
    // One shard per ParallelFor chunk.  Chunk boundaries depend only on
    // the record count and the pool size (thread_pool.h), so buffers
    // concatenated in chunk order reproduce the serial output exactly.
    const size_t max_chunks = std::min(b_records.size(), pool->num_threads());
    std::vector<std::vector<IdPair>> shard_pairs(max_chunks);
    std::vector<MatchStats> shard_stats(max_chunks);
    pool->ParallelFor(
        b_records.size(), [&](size_t chunk, size_t begin, size_t end) {
          Scratch scratch;
          for (size_t i = begin; i < end; ++i) {
            MatchOne(b_records[i], classifier, &shard_pairs[chunk],
                     &shard_stats[chunk], &scratch);
          }
        });
    size_t total_pairs = 0;
    for (const std::vector<IdPair>& shard : shard_pairs) {
      total_pairs += shard.size();
    }
    out.reserve(total_pairs);
    for (size_t c = 0; c < max_chunks; ++c) {
      out.insert(out.end(), shard_pairs[c].begin(), shard_pairs[c].end());
      batch += shard_stats[c];
    }
  }
  metrics.Record(batch);
  if (stats != nullptr) *stats += batch;
  return out;
}

}  // namespace cbvlink
