#include "src/blocking/matcher.h"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <mutex>
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

void VectorStore::CheckWidth(size_t num_bits, RecordId id) {
  if (ids_.empty()) {
    num_bits_ = num_bits;
    stride_ = (num_bits + 63) / 64;
  }
  // The arena has one stride for every record (the first add fixes it);
  // admitting a different width would silently corrupt the layout — every
  // later record lands at the wrong offset and the kernels read garbage.
  // Enforced unconditionally: an abort here is a caller bug surfaced at
  // the boundary, not data-dependent misbehaviour three stages later.
  if (num_bits != num_bits_) {
    std::fprintf(stderr,
                 "cbvlink: VectorStore::Add id=%llu bit width %zu != store "
                 "width %zu (all vectors must share one encoder layout)\n",
                 static_cast<unsigned long long>(id), num_bits, num_bits_);
    std::abort();
  }
}

uint32_t VectorStore::Claim(RecordId id, bool* write) {
  if (ids_.size() + 1 > (slots_.size() * 3) / 4) {
    Rehash(slots_.empty() ? 16 : slots_.size() * 2);
  }
  // First add wins for a live slot, matching the emplace semantics of the
  // map-based store.  A tombstoned slot is resurrected in place with the
  // new vector (an update may have changed the bits), so the dense index
  // stays stable.
  size_t pos = Hash(id) & slot_mask_;
  while (true) {
    const uint32_t dense = slots_[pos];
    if (dense == kNotFound) break;
    if (ids_[dense] == id) {
      *write = IsDead(dense);
      if (*write) {
        dead_words_[dense >> 6] &= ~(uint64_t{1} << (dense & 63));
        --dead_count_;
      }
      return dense;
    }
    pos = (pos + 1) & slot_mask_;
  }
  const uint32_t dense = static_cast<uint32_t>(ids_.size());
  slots_[pos] = dense;
  ids_.push_back(id);
  *write = true;
  return dense;
}

uint32_t VectorStore::Add(const EncodedRecord& record) {
  CheckWidth(record.bits.size(), record.id);
  bool write = false;
  const uint32_t dense = Claim(record.id, &write);
  if (!write) return dense;
  // BitVector zero-pads past size(); the arena inherits the invariant, so
  // whole-word kernels are exact.
  const std::vector<uint64_t>& words = record.bits.words();
  const size_t offset = static_cast<size_t>(dense) * stride_;
  if (offset == words_.size()) {
    words_.insert(words_.end(), words.begin(), words.end());
  } else {
    std::copy(words.begin(), words.end(), words_.begin() + offset);
  }
  return dense;
}

void VectorStore::AddAll(const std::vector<EncodedRecord>& records,
                         std::vector<uint32_t>* slots) {
  if (slots != nullptr) slots->resize(records.size());
  if (records.empty()) return;
  CheckWidth(records.front().bits.size(), records.front().id);
  Reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const uint32_t slot = Add(records[i]);
    if (slots != nullptr) (*slots)[i] = slot;
  }
}

std::vector<uint64_t*> VectorStore::AddRows(std::span<const RecordId> ids,
                                            size_t num_bits,
                                            std::vector<uint32_t>* slots) {
  slots->resize(ids.size());
  std::vector<uint64_t*> rows(ids.size(), nullptr);
  if (ids.empty()) return rows;
  CheckWidth(num_bits, ids.front());
  Reserve(ids.size());
  const size_t old_size = ids_.size();
  std::vector<uint8_t> writes(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    bool write = false;
    (*slots)[i] = Claim(ids[i], &write);
    writes[i] = write ? 1 : 0;
  }
  // One resize zeroes every new row; a resurrected row is cleared here.
  words_.resize(ids_.size() * stride_, 0);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (writes[i] == 0) continue;
    uint64_t* row = words_.data() + size_t{(*slots)[i]} * stride_;
    if ((*slots)[i] < old_size) std::fill_n(row, stride_, uint64_t{0});
    rows[i] = row;
  }
  return rows;
}

void VectorStore::Reserve(size_t more) {
  const size_t total = ids_.size() + more;
  // Doubling at least, so that many small bulk adds stay linear overall;
  // the first bulk add into an empty store reserves exactly.
  const auto grow = [](auto& column, size_t n) {
    if (n > column.capacity()) {
      column.reserve(std::max(n, 2 * column.capacity()));
    }
  };
  grow(ids_, total);
  grow(words_, total * stride_);
  if (total > (slots_.size() * 3) / 4) Rehash((total * 4 + 2) / 3);
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
  const uint64_t* const row = b.bits.words().data();
  Probe(row, s, scratch);
  Classify(b.id, row, classifier, out, s, scratch);
}

bool Matcher::Probe(const uint64_t* probe, MatchStats* stats,
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

void Matcher::Classify(RecordId b_id, const uint64_t* b_row,
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
  classifier.ClassifyBatch(b_row, store_a_->arena().data(),
                           store_a_->words_per_record(), fresh_dense.data(),
                           n, scratch->verdicts_.data());
  for (size_t i = 0; i < n; ++i) {
    if (scratch->verdicts_[i] != 0) {
      ++stats->matches;
      out->push_back(IdPair{store_a_->IdAt(fresh_dense[i]), b_id});
    }
  }
}

void Matcher::ClassifyUnstamped(RecordId b_id, const uint64_t* b_row,
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
  classifier.ClassifyBatch(b_row, store_a_->arena().data(),
                           store_a_->words_per_record(), /*dense=*/nullptr, n,
                           scratch->verdicts_.data());
  const uint32_t* const stamps = scratch->stamps_.data();
  const uint32_t epoch = scratch->epoch_;
  for (uint32_t dense = 0; dense < n; ++dense) {
    if (stamps[dense] == epoch || store_a_->IsDead(dense)) continue;
    ++stats->comparisons;
    if (verdicts[dense] != 0) {
      ++stats->matches;
      out->push_back(IdPair{store_a_->IdAt(dense), b_id});
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
  const size_t num_bits =
      b_records.empty() ? store_a_->num_bits() : b_records.front().bits.size();
  const size_t stride = (num_bits + 63) / 64;
  Result<std::vector<IdPair>> pairs = MatchStream(
      b_records.size(), num_bits,
      [&](size_t i, uint64_t* row, RecordId* id) {
        const std::vector<uint64_t>& words = b_records[i].bits.words();
        std::copy_n(words.begin(), std::min(words.size(), stride), row);
        *id = b_records[i].id;
        return Status::OK();
      },
      classifier, stats, pool);
  return std::move(pairs).value();
}

Result<std::vector<IdPair>> Matcher::MatchStream(
    size_t n, size_t num_bits, RowWriter write,
    const PairClassifier& classifier, MatchStats* stats,
    ThreadPool* pool) const {
  // The kernels read whole rows of the store's stride; a narrower probe
  // row would have them read past it.
  if (store_a_->size() != 0 && num_bits != store_a_->num_bits()) {
    std::fprintf(stderr,
                 "cbvlink: Matcher: probe rows of %zu bits against a store "
                 "of %zu-bit vectors\n",
                 num_bits, store_a_->num_bits());
    std::abort();
  }
  const MatcherMetrics& metrics = MatcherMetrics::Get();
  telemetry::ScopedTimer timer(metrics.batch_latency);
  const size_t stride = (num_bits + 63) / 64;
  const size_t num_chunks = (n + kStreamChunk - 1) / kStreamChunk;
  std::vector<std::vector<IdPair>> chunk_pairs(num_chunks);
  std::vector<MatchStats> chunk_stats(num_chunks);
  std::atomic<size_t> next_chunk{0};
  // The lowest failing chunk and its error.  Chunks are claimed in
  // order, so every chunk below it runs, and its error is that of the
  // first failing record whatever the scheduling.
  std::atomic<size_t> error_chunk{SIZE_MAX};
  std::mutex error_mu;
  Status first_error;
  const auto worker = [&](size_t, size_t, size_t) {
    Scratch scratch;
    std::vector<uint64_t> rows(kStreamChunk * stride);
    RecordId ids[kStreamChunk] = {};
    for (size_t c = next_chunk++; c < num_chunks && c < error_chunk;
         c = next_chunk++) {
      const size_t begin = c * kStreamChunk;
      const size_t count = std::min(kStreamChunk, n - begin);
      std::fill_n(rows.begin(), count * stride, uint64_t{0});
      Status status;
      for (size_t i = 0; i < count && status.ok(); ++i) {
        status = write(begin + i, rows.data() + i * stride, &ids[i]);
      }
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (c < error_chunk) {
          error_chunk = c;
          first_error = std::move(status);
        }
        return;
      }
      for (size_t i = 0; i < count; ++i) {
        const uint64_t* const row = rows.data() + i * stride;
        Probe(row, &chunk_stats[c], &scratch);
        Classify(ids[i], row, classifier, &chunk_pairs[c], &chunk_stats[c],
                 &scratch);
      }
    }
  };
  const size_t workers =
      pool == nullptr ? 1 : std::min(pool->num_threads(), num_chunks);
  ParallelForOrInline(pool, workers, 1, worker);
  if (!first_error.ok()) return first_error;

  MatchStats batch;
  size_t total_pairs = 0;
  for (size_t c = 0; c < num_chunks; ++c) {
    total_pairs += chunk_pairs[c].size();
    batch += chunk_stats[c];
  }
  std::vector<IdPair> out;
  out.reserve(total_pairs);
  for (std::vector<IdPair>& pairs : chunk_pairs) {
    out.insert(out.end(), pairs.begin(), pairs.end());
    std::vector<IdPair>().swap(pairs);
  }
  metrics.Record(batch);
  if (stats != nullptr) *stats += batch;
  return out;
}

}  // namespace cbvlink
