// The matching step with de-duplication (Section 5.3, Algorithm 2), as a
// parallel, allocation-free engine.
//
// For each record of data set B the matcher walks the buckets the
// blocking mechanism maps it to, skips A records already seen for this B
// record (the paper's unique collection C), stages each fresh candidate,
// classifies the whole staged set with one PairClassifier::ClassifyBatch
// call, and reports matches plus the counters behind the PC / PQ / RR
// measures.
//
// Engine design (DESIGN.md §9):
//  * VectorStore is a flat arena: every word-packed vector lives in one
//    contiguous uint64_t buffer at a fixed words-per-record stride.  A
//    record's position in it — its slot, or dense index — never moves.
//    The Hamming kernels run directly on the arena.
//  * The blocking tables hold those arena slots, not RecordIds
//    (SlotCandidateSource).  The probe runs key-first: the blocker
//    computes a block of tables' keys, prefetches their home slots and
//    first bucket entries, then emits the bucket spans.  The matcher
//    stamps and gathers by the slot it reads, so a candidate costs a
//    stamp and a row read, with no hash lookup.  The open-addressing
//    RecordId -> slot table (VectorStore::DenseIndex) serves only the
//    id-addressed operations — the service's Delete, Update and IsLive.
//  * The unique collection C is a generation-stamped visited array
//    indexed by slot: one epoch bump per probe, zero allocations in
//    steady state (a per-probe std::unordered_set in the seed engine).
//  * Classification is batched per probe (DESIGN.md §14): the rule is
//    compiled to a list of masked attribute-segment thresholds, and one
//    SIMD kernel call applies it to every staged candidate row in the
//    arena.  Verdicts come back in staging order, which is bucket
//    arrival order, so the emit order is that of a per-pair loop.
//  * MatchStream streams the B records through the pool in one pass:
//    each worker claims the next fixed-size chunk, writes its records'
//    rows into a per-worker row block (a batch encoder writes them there
//    straight from the raw records), then probes and classifies each
//    row.  Every chunk keeps its own stats and match buffer, merged in
//    chunk order — the output is byte-identical to the serial engine at
//    any thread count, and a slow worker claims fewer chunks instead of
//    holding the stage up.  MatchAll is MatchStream over EncodedRecords.

#ifndef CBVLINK_BLOCKING_MATCHER_H_
#define CBVLINK_BLOCKING_MATCHER_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/blocking/hb_blocker.h"
#include "src/common/bitvector.h"
#include "src/common/function_ref.h"
#include "src/common/hamming_kernels.h"
#include "src/common/record.h"
#include "src/common/status.h"
#include "src/embedding/record_encoder.h"
#include "src/rules/rule.h"

namespace cbvlink {

class ThreadPool;

/// Counters accumulated by the matcher.
struct MatchStats {
  /// Candidate occurrences delivered by the blocking mechanism: every
  /// slot of every probed bucket, duplicates across blocking groups
  /// included, and under a compound rule (C2, C3) also the collisions
  /// the rule does not formulate.
  uint64_t candidate_occurrences = 0;
  /// Distinct pairs actually compared — the |CR| of the PQ and RR
  /// measures.
  uint64_t comparisons = 0;
  /// Pairs classified as matches.
  uint64_t matches = 0;
  /// Duplicate occurrences skipped by the unique collection (the saving
  /// Algorithm 2 exists for).
  uint64_t dedup_skipped = 0;

  MatchStats& operator+=(const MatchStats& other) {
    candidate_occurrences += other.candidate_occurrences;
    comparisons += other.comparisons;
    matches += other.matches;
    dedup_skipped += other.dedup_skipped;
    return *this;
  }
};

/// Id-addressable storage of encoded records (the paper's retrieve(Id)),
/// laid out as a flat arena: all vectors in one contiguous word buffer at
/// a fixed stride, plus an open-addressing index from RecordId to the
/// dense position (the record's slot, which blocking tables store).
/// Every record must carry the same bit width (the encoder's total_bits)
/// — the first Add fixes the stride.  Re-adding an existing live id keeps
/// the first vector; re-adding a tombstoned id resurrects the slot with
/// the new vector.  Either way the slot is the id's existing one.
///
/// Deletion is a tombstone, not a compaction: Remove() flips a bit in a
/// dead-slot bitmap and the arena keeps the words, so delete is O(1) and
/// no dense index ever moves (readers holding dense indices stay valid).
/// The matcher consults the bitmap per candidate and skips dead slots;
/// reclaiming the arena space is the service compactor's job (it rebuilds
/// a fresh store from the survivors).
class VectorStore {
 public:
  /// Sentinel dense index for "id not stored".
  static constexpr uint32_t kNotFound = UINT32_MAX;

  VectorStore() = default;

  /// Stores `record` and returns its slot (dense index).
  uint32_t Add(const EncodedRecord& record);

  /// Adds every record in order; when `slots` is not null, sets
  /// (*slots)[i] to the slot of records[i].
  void AddAll(const std::vector<EncodedRecord>& records,
              std::vector<uint32_t>* slots = nullptr);

  /// The slot pass of a bulk add whose vectors the caller writes in
  /// place: gives ids[i] the slot an Add loop over `num_bits`-wide
  /// records would, sets (*slots)[i] to it and grows the arena once.
  /// Returns, for each i, the zeroed arena row record i's vector goes in
  /// when the Add loop would store it (a new id, or a tombstoned one,
  /// which comes back; the first of an id in `ids`), and null when its
  /// id already holds a row.  The rows stay valid until the next add;
  /// the caller must write every one before the store is read.
  std::vector<uint64_t*> AddRows(std::span<const RecordId> ids,
                                 size_t num_bits,
                                 std::vector<uint32_t>* slots);

  /// Fixes the width on the first add; aborts when `num_bits` differs
  /// from it (`id` names the offending record).  Every add checks.
  void CheckWidth(size_t num_bits, RecordId id);

  /// Makes room for `more` records past size() at once: the arena, the
  /// id column and an id -> slot table that those adds never rehash.
  /// The bulk adds call it; the tables and slots they build are those
  /// of an unreserved Add loop.
  void Reserve(size_t more);

  /// Tombstones `id`.  Returns true when the id was present and live
  /// (false = unknown or already dead).  O(1): one hash probe + one bit.
  bool Remove(RecordId id);

  /// True when the slot at dense index `dense` is tombstoned.
  bool IsDead(uint32_t dense) const {
    const size_t word = static_cast<size_t>(dense) >> 6;
    return word < dead_words_.size() &&
           ((dead_words_[word] >> (dense & 63)) & 1) != 0;
  }

  /// Records stored and not tombstoned.
  size_t live_size() const { return ids_.size() - dead_count_; }

  /// Dense index of `id` in [0, size()), or kNotFound.  O(1): one hash
  /// probe over the flat slot table.
  uint32_t DenseIndex(RecordId id) const {
    if (slots_.empty()) return kNotFound;
    size_t pos = Hash(id) & slot_mask_;
    while (true) {
      const uint32_t dense = slots_[pos];
      if (dense == kNotFound) return kNotFound;
      if (ids_[dense] == id) return dense;
      pos = (pos + 1) & slot_mask_;
    }
  }

  bool Contains(RecordId id) const { return DenseIndex(id) != kNotFound; }

  /// The words of the vector at dense index `dense` — exactly
  /// words_per_record() words, zero-padded past num_bits() (the kernels
  /// read whole words and rely on that invariant).
  const uint64_t* WordsAt(uint32_t dense) const {
    return words_.data() + static_cast<size_t>(dense) * stride_;
  }

  /// RecordId of the vector at dense index `dense`.
  RecordId IdAt(uint32_t dense) const { return ids_[dense]; }

  /// Reconstructs the BitVector at dense index `dense` (copies; for
  /// tests and diagnostics, not the hot path).
  BitVector VectorAt(uint32_t dense) const;

  /// Every live record, sorted by id (copies): what a rebuild of the
  /// index over the survivors stores.
  std::vector<EncodedRecord> LiveRecords() const;

  size_t size() const { return ids_.size(); }

  /// Bit width shared by every stored vector (0 before the first Add).
  size_t num_bits() const { return num_bits_; }

  /// Arena stride: words per record, ceil(num_bits / 64).
  size_t words_per_record() const { return stride_; }

  /// The raw arena (size() * words_per_record() words), for invariant
  /// checks.
  const std::vector<uint64_t>& arena() const { return words_; }

 private:
  static uint64_t Hash(RecordId id) {
    // Mix64 (splittable-random finalizer), inlined to keep this header
    // free of the hashing dependency.
    uint64_t z = id;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  void Rehash(size_t min_slots);

  /// The slot of `id`, appended (without words) when new.  Sets `*write`
  /// when the caller must write the slot's row: a new id, or a
  /// tombstoned one, which this brings back.
  uint32_t Claim(RecordId id, bool* write);

  size_t num_bits_ = 0;
  size_t stride_ = 0;
  /// Contiguous arena: vector i occupies words [i*stride_, (i+1)*stride_).
  std::vector<uint64_t> words_;
  /// Dense index -> RecordId.
  std::vector<RecordId> ids_;
  /// Open-addressing slot table: slot -> dense index or kNotFound.
  std::vector<uint32_t> slots_;
  size_t slot_mask_ = 0;
  /// Dead-slot bitmap, bit `dense` set when the slot is tombstoned.
  /// Grown lazily on the first Remove; dense indices past the bitmap end
  /// are live (Add never has to touch it).
  std::vector<uint64_t> dead_words_;
  size_t dead_count_ = 0;
};

/// Decides whether (A, B) vector pairs are matches.  A small value type
/// (not a std::function): the rule is compiled once, and ClassifyBatch
/// is the one entry point every match path calls with a probe's whole
/// candidate set.  An AND of thresholds (the paper's PL rule, rule C1, a
/// whole-record threshold) compiles to a MaskedPredicate list that goes
/// to the active set's masked-conjunction kernel in one call; a rule with
/// OR or NOT is flattened into a node program evaluated per row.
class PairClassifier {
 public:
  /// An empty classifier classifies nothing (returns false); assign from
  /// MakeRuleClassifier / MakeRecordThresholdClassifier before use.
  PairClassifier() = default;

  /// Classifies one pair of equally sized vectors (a one-row batch).
  bool operator()(const BitVector& a, const BitVector& b) const {
    uint8_t verdict = 0;
    ClassifyBatch(b.words().data(), a.words().data(), a.words().size(),
                  /*dense=*/nullptr, 1, &verdict);
    return verdict != 0;
  }

  /// For each i in [0, n) classifies (probe, row_i), with
  ///   row_i = rows + (dense ? dense[i] : i) * stride,
  /// writing out[i] = 1 for a match and 0 otherwise.  The probe and every
  /// row are `stride` words (the record width, zero-padded past the
  /// logical bits).  `dense == nullptr` means the rows are consecutive.
  void ClassifyBatch(const uint64_t* probe, const uint64_t* rows,
                     size_t stride, const uint32_t* dense, size_t n,
                     uint8_t* out) const;

 private:
  friend PairClassifier MakeRuleClassifier(Rule rule,
                                           const RecordLayout& layout);
  friend PairClassifier MakeRecordThresholdClassifier(size_t theta);

  enum class Kind : uint8_t { kEmpty, kThreshold, kConjunction, kRule };

  /// One node of a compiled OR/NOT rule: the tree flattened breadth-first
  /// so each node's children are contiguous at [first_child,
  /// first_child + num_children).
  struct Node {
    Rule::Kind kind = Rule::Kind::kPredicate;
    uint32_t first_child = 0;
    uint32_t num_children = 0;
    /// Predicate payload: the attribute's bit segment and threshold.
    uint32_t offset = 0;
    uint32_t length = 0;
    uint32_t theta = 0;
  };

  bool EvalNode(uint32_t index, const uint64_t* a, const uint64_t* b) const;

  Kind kind_ = Kind::kEmpty;
  /// kThreshold: the whole-record theta (the record width is only known
  /// per call, so its one predicate is built there).
  size_t theta_ = 0;
  /// kConjunction: one predicate per attribute threshold.
  std::vector<MaskedPredicate> predicates_;
  /// kRule: the flattened tree.
  std::vector<Node> nodes_;
};

/// Builds a classifier that evaluates `rule` on attribute-level Hamming
/// distances under `layout`.  The rule must already be validated for the
/// layout.
PairClassifier MakeRuleClassifier(Rule rule, const RecordLayout& layout);

/// Builds a classifier for a single record-level Hamming threshold.
PairClassifier MakeRecordThresholdClassifier(size_t theta);

/// Algorithm 2 driver over a candidate source and the A-side store.
/// Both referenced objects must outlive the matcher.
class Matcher {
 public:
  /// Reusable per-thread probe state: the generation-stamped visited
  /// array, indexed by arena slot, that implements the unique collection
  /// C without per-probe allocations.  One Scratch must not be shared
  /// across threads.
  class Scratch {
   public:
    Scratch() = default;

   private:
    friend class Matcher;

    /// Sizes the stamp array for `num_dense` records and opens a new
    /// probe epoch (clearing stamps only on the ~never wrap of the
    /// 32-bit epoch).
    void Prepare(size_t num_dense) {
      if (stamps_.size() < num_dense) stamps_.resize(num_dense, 0);
      if (++epoch_ == 0) {
        std::fill(stamps_.begin(), stamps_.end(), 0);
        epoch_ = 1;
      }
      fresh_dense_.clear();
    }

    /// stamps_[slot] == epoch_  <=>  slot already seen this probe; after
    /// Probe, under a compound rule, also formulated (no epoch is 0, so
    /// 0 clears a stamp).
    std::vector<uint32_t> stamps_;
    uint32_t epoch_ = 0;
    /// Batch staging: the dense indices of the probe's fresh
    /// (first-seen, live, formulated) candidates in arrival order, and
    /// their verdicts (in Probe, the rule filter's keep flags).
    /// Capacity persists across probes, so steady state never
    /// allocates.
    std::vector<uint32_t> fresh_dense_;
    std::vector<uint8_t> verdicts_;
  };

  /// A matcher over `source`'s candidates for the records of `store_a`.
  /// `source` must be a SlotCandidateSource whose slots are `store_a`'s
  /// (every table slot below store_a->size(), checked per probe); the
  /// constructor aborts on any other source.
  Matcher(const CandidateSource* source, const VectorStore* store_a);

  /// Records per chunk of MatchStream, the unit a worker claims.
  static constexpr size_t kStreamChunk = 256;

  /// Writes B record i's vector into `row` (zeroed, as wide as the
  /// stream's rows) and its id into `*id`.  An error stops the stream.
  using RowWriter =
      FunctionRef<Status(size_t i, uint64_t* row, RecordId* id)>;

  /// Matches one B record; appends matched pairs to `out`.  `stats` may
  /// be null when the caller does not need counters.  Uses the matcher's
  /// internal scratch — not thread-safe across concurrent MatchOne calls
  /// on one Matcher; use the Scratch overload for that.
  void MatchOne(const EncodedRecord& b, const PairClassifier& classifier,
                std::vector<IdPair>* out, MatchStats* stats) const;

  /// MatchOne with caller-owned scratch (per-thread reuse).  Exactly
  /// Probe followed by Classify.
  void MatchOne(const EncodedRecord& b, const PairClassifier& classifier,
                std::vector<IdPair>* out, MatchStats* stats,
                Scratch* scratch) const;

  /// MatchOne's candidates stage: walks the bucket slots of the `probe`
  /// row (store_a's words_per_record() words), stamps every candidate in
  /// `scratch` and stages the first-seen live ones.  When the source
  /// does not formulate every pair it collides
  /// (SlotCandidateSource::FormulatesEveryPair), one FilterFormulated
  /// call over the staged slots' arena rows then drops, in order, the
  /// pairs the rule does not formulate, and clears their stamps.
  /// Adds candidate_occurrences and dedup_skipped to `*stats` (not null).
  /// Returns true when a probed bucket has dropped entries at its cap
  /// (SlotCandidateSource::ForEachSlotSpan).  Aborts when the source
  /// holds a slot outside the store.
  bool Probe(const uint64_t* probe, MatchStats* stats,
             Scratch* scratch) const;

  /// MatchOne's compare stage: classifies the candidates the last Probe
  /// of `b_row` staged in `scratch` with one ClassifyBatch call and
  /// appends matched (a, b_id) pairs in staging order.  Adds comparisons
  /// and matches to `*stats`.
  void Classify(RecordId b_id, const uint64_t* b_row,
                const PairClassifier& classifier, std::vector<IdPair>* out,
                MatchStats* stats, Scratch* scratch) const;

  /// Exact fallback after Probe(b_row): classifies every live record the
  /// probe did not stamp, with one ClassifyBatch call over the
  /// contiguous arena, and appends matched pairs in arena order.  With
  /// Classify, every live record is compared exactly once.
  void ClassifyUnstamped(RecordId b_id, const uint64_t* b_row,
                         const PairClassifier& classifier,
                         std::vector<IdPair>* out, MatchStats* stats,
                         Scratch* scratch) const;

  /// Matches every B record in sequence.  `stats` may be null.
  std::vector<IdPair> MatchAll(const std::vector<EncodedRecord>& b_records,
                               const PairClassifier& classifier,
                               MatchStats* stats) const;

  /// MatchStream over `b_records`, whose rows are copies of their
  /// vectors: pairs and stats totals are identical to a MatchOne loop at
  /// any thread count.
  std::vector<IdPair> MatchAll(const std::vector<EncodedRecord>& b_records,
                               const PairClassifier& classifier,
                               MatchStats* stats, ThreadPool* pool) const;

  /// Matches `n` B records of `num_bits` bits (store_a's width), record
  /// i given by write(i, ...), in one pass over `pool` (null or a single
  /// worker runs inline).  Workers claim chunks of kStreamChunk
  /// consecutive records in order, write a chunk's rows into a
  /// per-worker block, then probe and classify each row.  Each chunk's
  /// pairs and stats go to a slot of their own, merged in chunk order,
  /// so the pairs, their order and the stats equal a MatchOne loop over
  /// the records at any thread count.  When `write` fails, returns the
  /// error of the first failing record, with no pairs and `*stats`
  /// untouched.  `stats` may be null.
  Result<std::vector<IdPair>> MatchStream(size_t n, size_t num_bits,
                                          RowWriter write,
                                          const PairClassifier& classifier,
                                          MatchStats* stats,
                                          ThreadPool* pool) const;

 private:
  const SlotCandidateSource* source_;
  const VectorStore* store_a_;
  /// Scratch behind the scratch-less MatchOne overload.
  mutable Scratch scratch_;
};

}  // namespace cbvlink

#endif  // CBVLINK_BLOCKING_MATCHER_H_
